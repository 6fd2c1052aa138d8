package obs

import (
	"bytes"
	"cmp"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"rpcvalet/internal/sim"
	"rpcvalet/internal/trace"
)

// captureStream is a fixed interleaved event stream: 200 single-machine
// lifecycles with random waits and service times, in time order.
func captureStream() []trace.Event {
	r := rand.New(rand.NewPCG(7, 11))
	var evs []trace.Event
	for id := uint64(0); id < 200; id++ {
		arrive := sim.Time(id * 100)
		dispatch := arrive + sim.Time(10)
		start := dispatch + sim.Time(r.IntN(2000))
		complete := start + sim.Time(1+r.IntN(3000))
		core := r.IntN(16)
		evs = append(evs,
			trace.Event{ReqID: id, Phase: trace.PhaseArrive, At: arrive, Core: -1, Depth: r.IntN(8)},
			trace.Event{ReqID: id, Phase: trace.PhaseDispatch, At: dispatch, Core: core, Depth: -1},
			trace.Event{ReqID: id, Phase: trace.PhaseStart, At: start, Core: core, Depth: -1},
			trace.Event{ReqID: id, Phase: trace.PhaseComplete, At: complete, Core: core, Depth: -1},
		)
	}
	slices.SortStableFunc(evs, func(a, b trace.Event) int { return cmp.Compare(a.At, b.At) })
	return evs
}

// TestCaptureMatchesHandComposed: the capture helper keeps the same tail and
// writes the same JSONL bytes as Tee(NewTailSampler(k), Sample(NewCollector(),
// n)) composed by hand, for every combination of the two sinks.
func TestCaptureMatchesHandComposed(t *testing.T) {
	evs := captureStream()
	cases := []struct {
		name    string
		tailK   int
		sample  int
		collect bool
	}{
		{"off", 0, 4, false},
		{"tail", 5, 0, false},
		{"sample", 0, 4, true},
		{"every", 0, 0, true},
		{"both", 5, 4, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCapture(tc.tailK, tc.sample, tc.collect)
			var tail *trace.TailSampler
			var spans *trace.Collector
			var sinks []trace.Recorder
			if tc.tailK > 0 {
				tail = trace.NewTailSampler(tc.tailK)
				sinks = append(sinks, tail)
			}
			if tc.collect {
				spans = trace.NewCollector()
				sinks = append(sinks, trace.Sample(spans, tc.sample))
			}
			ref := trace.Tee(sinks...)

			rec := c.Recorder()
			if (rec == nil) != (ref == nil) {
				t.Fatalf("recorder nil = %v, want %v", rec == nil, ref == nil)
			}
			for _, e := range evs {
				if rec != nil {
					rec.Record(e)
					ref.Record(e)
				}
			}

			var wantTail []trace.Span
			if tail != nil {
				wantTail = tail.Spans()
				if len(wantTail) != tc.tailK {
					t.Fatalf("reference tail holds %d spans, want %d", len(wantTail), tc.tailK)
				}
			}
			if got := c.TailSpans(); !reflect.DeepEqual(got, wantTail) {
				t.Fatalf("tail spans differ:\n got %v\nwant %v", got, wantTail)
			}

			var want, got bytes.Buffer
			if spans != nil {
				if err := WriteSpansJSONL(&want, spans.Spans()); err != nil {
					t.Fatal(err)
				}
				if want.Len() == 0 {
					t.Fatal("reference collected no spans")
				}
			}
			if err := c.WriteJSONL(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("JSONL differs:\n got %q\nwant %q", got.String(), want.String())
			}

			path := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := c.WriteJSONLFile(path); err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(path)
			if !tc.collect {
				if !os.IsNotExist(err) {
					t.Fatalf("file written without collection: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(file, want.Bytes()) {
				t.Fatal("JSONL file differs from the hand-composed export")
			}
		})
	}
}
