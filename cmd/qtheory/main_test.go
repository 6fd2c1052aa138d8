package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestBadInputExitsTwo runs every hostile vector the command used to crash
// on or run: each exits 2 before simulating.
func TestBadInputExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep", "-points", "-2"},
		{"-sweep", "-points", "1"},
		{"-q", "0"},
		{"-measure", "0"},
		{"-load", "2"},
		{"-dist", "bogus"},
	} {
		rejects(t, args...)
	}
}

func TestSmallSweep(t *testing.T) {
	if out := runs(t, "-sweep", "-points", "2", "-measure", "2000"); !strings.Contains(out, "throughput under 10×S̄ SLO") {
		t.Fatalf("no SLO line in\n%s", out)
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
	if code != 2 || stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 || !strings.HasPrefix(stderr.String(), "qtheory"+": ") {
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
