package trace

import (
	"testing"

	"rpcvalet/internal/sim"
)

func TestPhaseStrings(t *testing.T) {
	cases := map[Phase]string{
		PhaseArrive:   "arrive",
		PhaseDispatch: "dispatch",
		PhaseStart:    "start",
		PhaseComplete: "complete",
		Phase(9):      "phase(9)",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("Phase(%d) = %q, want %q", p, p.String(), want)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{ReqID: 3, Phase: PhaseStart, At: sim.Time(1500), Core: 2}
	if e.String() == "" {
		t.Fatal("empty event string")
	}
}

func TestFuncAdapter(t *testing.T) {
	var got []Event
	r := Func(func(e Event) { got = append(got, e) })
	r.Record(Event{ReqID: 5})
	if len(got) != 1 || got[0].ReqID != 5 {
		t.Fatal("Func adapter did not record")
	}
}
