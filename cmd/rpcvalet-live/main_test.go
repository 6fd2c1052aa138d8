package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBadInputExitsTwo runs every hostile vector the command used to run or
// ignore: each exits 2 before any window runs, and a trace file named
// beside it keeps its bytes.
func TestBadInputExitsTwo(t *testing.T) {
	jsonl := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.WriteFile(jsonl, []byte("keep\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-dispatch", "1x16,bogus", "-duration", "2s"},
		{"-cores", "6", "-dispatch", "4x4", "-duration", "2s"},
		{"-dispatch", "bogus", "-trace-jsonl", jsonl},
		{"-cores", "6", "-dispatch", "4x4", "-duration", "2s", "-trace-jsonl", jsonl},
		{"-cores", "16", "-dispatch", "1x8", "-duration", "2s"},
		{"-plan", "1x16"},
		{"-workers", "4"},
		{"-cores", "-2"},
		{"-rate", "-1"},
		{"-duration", "-1s"},
		{"-trace-sample", "4"},
		{"-timeline", "-format", "json"},
		{"-emulation", "bogus"},
	} {
		rejects(t, args...)
	}
	if b, err := os.ReadFile(jsonl); err != nil || string(b) != "keep\n" {
		t.Fatalf("trace file now %q (%v)", b, err)
	}
}

func TestSmallRun(t *testing.T) {
	jsonl := filepath.Join(t.TempDir(), "spans.jsonl")
	runs(t, "-dispatch", "1x16,16x1,4x4", "-duration", "50ms", "-cores", "4", "-emulation", "sleep",
		"-tail", "2", "-trace-jsonl", jsonl, "-trace-sample", "8")
	if b, err := os.ReadFile(jsonl); err != nil || !bytes.Contains(b, []byte(`"req":`)) {
		t.Fatalf("trace file %q (%v)", b, err)
	}
	// A literal grouping is checked against -cores, not the 16-core default.
	runs(t, "-cores", "8", "-dispatch", "2x4", "-duration", "50ms", "-emulation", "sleep")
}

// rejects runs the command on args and checks the bad-input contract: exit
// 2, one stderr line naming the command, no stdout, and no simulation
// first (a run takes far longer than the bound).
func rejects(t *testing.T, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run(args, &stdout, &stderr)
	if d := time.Since(start); d > time.Second {
		t.Errorf("%q took %v before failing", args, d)
	}
	if code != 2 || stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 || !strings.HasPrefix(stderr.String(), "rpcvalet-live"+": ") {
		t.Errorf("%q: exit %d, stdout %q, stderr %q", args, code, stdout.String(), stderr.String())
	}
}

// runs runs the command on args and checks that it succeeds, printing its
// report and nothing on stderr.
func runs(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 || stdout.Len() == 0 || stderr.Len() != 0 {
		t.Fatalf("%q: exit %d, stdout %d bytes, stderr %q", args, code, stdout.Len(), stderr.String())
	}
	return stdout.String()
}
