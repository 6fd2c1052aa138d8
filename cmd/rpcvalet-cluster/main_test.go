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
		{"-hop", "-5"},
		{"-hop", "NaN"},
		{"-sample", "1e30"},
		{"-global-hop", "Inf", "-racks", "2"},
		{"-global-sample", "-1us", "-racks", "2"},
		{"-racks", "3", "-nodes", "4", "-trace-jsonl", jsonl},
		{"-nodes", "0"},
		{"-points", "0"},
		{"-tail", "-3"},
		{"-trace-sample", "64"},
		{"-global-hop", "5"},
		{"-global-policy", "bogus"},
		{"-policies", "rr,bogus"},
		{"-nodes", "4", "-dispatch", "1x16,16x1"},
		{"-shards", "2", "-hop", "0"},
		{"-lo", "-0.5"},
		{"-degrade", "9:x2"},
		{"-workers", "-1"},
		{"-hi", "Inf"},
		{"-hi", "2e6"},
		{"-lo", "1e5", "-hi", "1e5", "-measure", "2000"},
		{"-lo", "1e-300", "-hi", "1e-300", "-points", "1", "-measure", "100", "-warmup", "0"},
	} {
		rejects(t, args...)
	}
	if b, err := os.ReadFile(jsonl); err != nil || string(b) != "keep\n" {
		t.Fatalf("trace file now %q (%v)", b, err)
	}
}

// TestHeaderPrintsSpanUsed checks that a span given with a unit is printed
// as the nanoseconds the run used.
func TestHeaderPrintsSpanUsed(t *testing.T) {
	out := runs(t, "-points", "1", "-warmup", "0", "-measure", "500", "-policies", "jsq2", "-hop", "0.25us", "-racks", "2", "-global-hop", "1us")
	if !strings.Contains(out, "1000 ns global hop") || !strings.Contains(out, "hop 250 ns") {
		t.Fatalf("header does not show the spans used:\n%s", out)
	}
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
	if code != 2 || stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 || !strings.HasPrefix(stderr.String(), "rpcvalet-cluster"+": ") {
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
