package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rpcvalet/internal/sim"
	"rpcvalet/internal/stats"
)

// streamOp is one call of a recorded stream: a completion, a busy span,
// or a window toggle (open when closed, close when open).
type streamOp struct {
	kind   int // opComplete, opBusy, opWindow
	t      sim.Time
	c      Completion
	server int
	d      sim.Duration
}

const (
	opComplete = iota
	opBusy
	opWindow
)

// stream is a Recorder configuration and the calls to feed it.
type stream struct {
	cfg Config
	ops []streamOp
}

// byteReader hands out a fuzz input's bytes, then zeros.
type byteReader []byte

func (b *byteReader) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeStream turns bytes into a stream in nondecreasing time. Five
// header bytes pick MaxEpochs (2–4), 0–3 classes with one (or none)
// unmeasured, the epoch length, the server count and a negative or zero
// start time; then every seven bytes are one call. Latencies, waits and
// services are multiples of 1/8 of at most a few hundred, with negative
// values (not observed) among them: every sum of them is exact in float64
// in any order, so the brute-force reference's moments can match epochs
// merged in another order.
func decodeStream(data []byte) stream {
	b := byteReader(data)
	h0, h1, h2, h3, h4 := b.next(), b.next(), b.next(), b.next(), b.next()
	nClasses := (h0 / 3) % 4
	s := stream{cfg: Config{
		Servers:    h2 % 4,
		EpochNanos: 1 + float64(h1%32),
		MaxEpochs:  2 + h0%3,
	}}
	for i := range nClasses {
		s.cfg.Classes = append(s.cfg.Classes, string(rune('a'+i)))
	}
	unmeasured := h3 % (nClasses + 1) // == nClasses: every class measured
	t := sim.Time(0)
	if h4&1 == 1 {
		t = sim.Time(-50 * sim.Nanosecond)
	}
	for len(b) > 0 {
		k, gap, v1, v2, v3, v4, v5 := b.next(), b.next(), b.next(), b.next(), b.next(), b.next(), b.next()
		if gap >= 64 {
			t += sim.Time(gap-64) * 2500 // 2.5 ns steps
		}
		op := streamOp{t: t}
		switch {
		case k < 160:
			op.kind = opComplete
			class := v3%(nClasses+2) - 1 // -1 and nClasses are out of range
			measured := class != unmeasured
			if class < 0 || class >= nClasses {
				measured = v3&0x80 != 0
			}
			op.c = Completion{
				Class:     class,
				Measured:  measured,
				LatencyNs: float64(v1-16) / 8,
				WaitNs:    float64(v2-32) / 4,
				ServiceNs: float64(v5-8) / 2,
				Depth:     v4 - 8,
			}
		case k < 240:
			op.kind = opBusy
			op.server = v1%(s.cfg.Servers+2) - 1
			op.d = sim.Duration(v2) * sim.Nanosecond
		default:
			op.kind = opWindow
		}
		s.ops = append(s.ops, op)
	}
	return s
}

// refEpoch is the brute-force view of one epoch.
type refEpoch struct {
	lat, wait   stats.Sample
	completions int
	depthSum    int64
	depthN      int
	depthMax    int
	busy        sim.Duration
}

// checkStream feeds s to a Recorder, reading its summaries and timeline
// once mid-stream, and checks the final summaries and timeline against a
// brute-force reference: the window's samples are filtered from the calls
// made while it was open, and the epochs are the completions bucketed by
// the final epoch length.
func checkStream(t *testing.T, s stream) {
	t.Helper()
	r := NewRecorder(s.cfg)
	var lat, wait, svc stats.Sample
	class := make([]stats.Sample, len(s.cfg.Classes))
	open := false
	for i, op := range s.ops {
		if i == len(s.ops)/2 {
			// Summaries read mid-run must leave the log as it was.
			r.Latency()
			r.Wait()
			r.Timeline()
		}
		switch op.kind {
		case opComplete:
			r.Complete(op.t, op.c)
			if !open {
				continue
			}
			c := op.c
			if c.Measured && c.LatencyNs >= 0 {
				lat.Add(c.LatencyNs)
			}
			if c.Class >= 0 && c.Class < len(class) && c.LatencyNs >= 0 {
				class[c.Class].Add(c.LatencyNs)
			}
			if c.WaitNs >= 0 {
				wait.Add(c.WaitNs)
			}
			if c.ServiceNs >= 0 {
				svc.Add(c.ServiceNs)
			}
		case opBusy:
			r.Busy(op.t, op.server, op.d)
		case opWindow:
			if open {
				r.CloseWindow(op.t)
			} else {
				// Opening restarts the window.
				r.OpenWindow(op.t)
				lat.Reset()
				wait.Reset()
				svc.Reset()
				for i := range class {
					class[i].Reset()
				}
			}
			open = !open
		}
	}
	sameSummary(t, "window latency", r.Latency(), lat.Summarize())
	sameSummary(t, "window wait", r.Wait(), wait.Summarize())
	for i := range class {
		sameSummary(t, "window class "+s.cfg.Classes[i], r.Class(i), class[i].Summarize())
	}
	if got, want := r.ServiceMean(), svc.Mean(); got != want {
		t.Errorf("service mean = %v, want %v", got, want)
	}

	tl := r.Timeline()
	maxEpochs := max(s.cfg.MaxEpochs, 2)
	if len(tl.Epochs) > maxEpochs {
		t.Fatalf("%d epochs, MaxEpochs %d", len(tl.Epochs), maxEpochs)
	}
	var ref []refEpoch
	at := func(t sim.Time) *refEpoch {
		idx := int(max(t.Nanos(), 0) / tl.EpochNanos)
		for len(ref) <= idx {
			ref = append(ref, refEpoch{})
		}
		return &ref[idx]
	}
	for _, op := range s.ops {
		switch op.kind {
		case opComplete:
			e, c := at(op.t), op.c
			e.completions++
			if c.Measured && c.LatencyNs >= 0 {
				e.lat.Add(c.LatencyNs)
			}
			if c.WaitNs >= 0 {
				e.wait.Add(c.WaitNs)
			}
			if c.Depth >= 0 {
				e.depthSum += int64(c.Depth)
				e.depthN++
				e.depthMax = max(e.depthMax, c.Depth)
			}
		case opBusy:
			at(op.t).busy += op.d
		}
	}
	last := -1
	for i, e := range ref {
		if e.completions > 0 || e.depthN > 0 || e.busy > 0 {
			last = i
		}
	}
	if len(tl.Epochs) != last+1 {
		t.Fatalf("%d epochs of %g ns, reference %d", len(tl.Epochs), tl.EpochNanos, last+1)
	}
	for i, got := range tl.Epochs {
		e := &ref[i]
		want := EpochStats{
			StartNanos:     float64(i) * tl.EpochNanos,
			EndNanos:       float64(i+1) * tl.EpochNanos,
			Completions:    e.completions,
			ThroughputMRPS: float64(e.completions) / tl.EpochNanos * 1000,
			MaxDepth:       e.depthMax,
		}
		if e.depthN > 0 {
			want.MeanDepth = float64(e.depthSum) / float64(e.depthN)
		}
		if s.cfg.Servers > 0 {
			want.Utilization = e.busy.Nanos() / (tl.EpochNanos * float64(s.cfg.Servers))
		}
		sameSummary(t, "epoch latency", got.Latency, e.lat.Summarize())
		sameSummary(t, "epoch wait", got.Wait, e.wait.Summarize())
		got.Latency, got.Wait = stats.Summary{}, stats.Summary{}
		if got != want {
			t.Errorf("epoch %d = %+v, want %+v", i, got, want)
		}
	}
}

// sameSummary checks counts, extremes and percentiles exactly, and the
// mean and standard deviation to a 1e-12 relative tolerance.
func sameSummary(t *testing.T, what string, got, want stats.Summary) {
	t.Helper()
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }
	if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max ||
		got.P50 != want.P50 || got.P90 != want.P90 || got.P99 != want.P99 || got.P999 != want.P999 ||
		!close(got.Mean, want.Mean) || !close(got.StdDev, want.StdDev) {
		t.Errorf("%s = %+v, want %+v", what, got, want)
	}
}

// TestRecorderMatchesBruteForce checks random streams (see decodeStream)
// against the brute-force reference.
func TestRecorderMatchesBruteForce(t *testing.T) {
	src := rand.New(rand.NewSource(1))
	for range 300 {
		data := make([]byte, 5+7*src.Intn(400))
		src.Read(data)
		checkStream(t, decodeStream(data))
		if t.Failed() {
			t.Fatalf("failing input: %x", data)
		}
	}
}

// FuzzRecorder checks fuzzed streams against the brute-force reference.
func FuzzRecorder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 3, 2, 1, 1, 0, 200, 100, 50, 9, 10, 20, 255, 0, 0, 0, 0, 0, 0, 0, 100, 255, 40, 40, 2, 9, 9})
	f.Add([]byte{11, 0, 3, 0, 0,
		10, 64, 50, 40, 1, 12, 20,
		250, 0, 0, 0, 0, 0, 0,
		10, 90, 60, 30, 2, 2, 20,
		200, 64, 1, 30, 0, 0, 0,
		10, 255, 10, 70, 3, 20, 20,
		250, 70, 0, 0, 0, 0, 0,
		10, 255, 0, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 7*2000 {
			data = data[:7*2000]
		}
		checkStream(t, decodeStream(data))
	})
}

// TestRecorderRejectsDecreasingTime: an epoch is a contiguous log range
// only while observation times never decrease, so a Complete or Busy
// earlier than one already seen panics.
func TestRecorderRejectsDecreasingTime(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(r *Recorder)
	}{
		{"complete", func(r *Recorder) { r.Complete(at(99), Completion{Measured: true, LatencyNs: 1}) }},
		{"busy", func(r *Recorder) { r.Busy(at(99), 0, sim.Nanosecond) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder(Config{Servers: 1})
			r.Busy(at(100), 0, sim.Nanosecond)
			r.Complete(at(100), Completion{Measured: true, LatencyNs: 5})
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "must not decrease") {
					t.Fatalf("panic %q, want the time-order message", msg)
				}
			}()
			tc.call(r)
		})
	}
}
