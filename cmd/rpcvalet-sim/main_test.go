package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBadInputExitsTwo runs every hostile vector the command used to run,
// crash on or ignore: each exits 2 before simulating, and a trace file
// named beside it keeps its bytes.
func TestBadInputExitsTwo(t *testing.T) {
	jsonl := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.WriteFile(jsonl, []byte("keep\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-measure", "0", "-trace-jsonl", jsonl},
		{"-threshold", "0", "-trace-jsonl", jsonl},
		{"-tail", "-3"},
		{"-trace-sample", "4"},
		{"-timeline", "-format", "json"},
		{"-dispatch", "1x16,4x4"},
		{"-dispatch", "5x3"},
		{"-rate", "-1"},
		{"-rate", "Inf"},
		{"-rate", "2e6"},
		{"-rate", "1e5", "-measure", "2000"},
		{"-rate", "1e-300", "-measure", "100", "-warmup", "0"},
		{"-rate", "1e-30", "-measure", "100", "-warmup", "0"},
		{"-epoch", "-5us"},
		{"-format", "xml"},
		{"-workload", "bogus"},
		{"herd"},
	} {
		rejects(t, args...)
	}
	if b, err := os.ReadFile(jsonl); err != nil || string(b) != "keep\n" {
		t.Fatalf("trace file now %q (%v)", b, err)
	}
}

func TestSmallRun(t *testing.T) {
	if out := runs(t, "-warmup", "0", "-measure", "200", "-tail", "2", "-timeline"); !strings.Contains(out, "slowest requests") {
		t.Fatalf("no tail table in\n%s", out)
	}
	runs(t, "-warmup", "0", "-measure", "200", "-format", "json")
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
	if code != 2 || stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 || !strings.HasPrefix(stderr.String(), "rpcvalet-sim"+": ") {
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
