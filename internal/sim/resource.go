package sim

// Server models a single serially-reusable resource with FIFO service: an NI
// backend's packet pipeline, a hardware dispatch stage, a lock's critical
// section. Work items submitted while the server is busy queue up in
// submission order, which is exactly the behaviour of a pipelined hardware
// unit fed by a FIFO.
//
// The implementation keeps only a "busy until" horizon: a job submitted at
// time t with service s begins at max(t, busyUntil) and completes at
// begin+s. This is equivalent to simulating the queue explicitly (for a
// work-conserving FIFO server) while costing O(1) per job.
type Server struct {
	eng       *Engine
	busyUntil Time
	busy      Duration // cumulative busy time, for utilization reporting
}

// NewServer returns a Server that schedules completions on eng.
func NewServer(eng *Engine) *Server { return &Server{eng: eng} }

// Submit enqueues a job with the given service duration. done, if non-nil,
// runs at the job's completion time. Submit returns the completion time.
func (s *Server) Submit(service Duration, done func()) Time {
	end := s.Occupy(service)
	if done != nil {
		s.eng.ScheduleAt(end, done)
	}
	return end
}

// SubmitArg is Submit with the allocation-free callback form: done(arg) runs
// at completion. done should be a long-lived function value (see
// Engine.ScheduleArg); arg carries the per-job state.
func (s *Server) SubmitArg(service Duration, done func(any), arg any) Time {
	end := s.Occupy(service)
	s.eng.ScheduleArgAt(end, done, arg)
	return end
}

// Occupy advances the server's busy horizon by one job of the given service
// time and returns the job's completion time, scheduling nothing. A caller
// whose completion work is only "schedule the next stage a fixed delay
// later" schedules that stage at the returned time directly, saving the
// completion event (DESIGN.md §9, folding).
func (s *Server) Occupy(service Duration) Time { return s.OccupyAt(s.eng.Now(), service) }

// OccupyAt is Occupy for a job that arrived at t, at or before now, and is
// applied late: the busy horizon moves exactly as Occupy called at time t
// would have moved it, provided the server's jobs are applied in arrival
// order. A job whose arrival is deferred rather than an event (DESIGN.md
// §9) joins the FIFO here once a later job needs the horizon.
func (s *Server) OccupyAt(t Time, service Duration) Time {
	if service < 0 {
		service = 0
	}
	start := t
	if s.busyUntil > start {
		start = s.busyUntil
	}
	end := start.Add(service)
	s.busyUntil = end
	s.busy += service
	return end
}

// Idle reports whether the server's last job ended strictly before now. A
// job submitted now then starts at once, and no earlier job's completion
// event can still be pending at this instant. A job ending exactly now
// does not count: Delay is zero, but its completion may not have fired yet.
func (s *Server) Idle() bool { return s.busyUntil < s.eng.Now() }

// Delay reports how long a job submitted now would wait before starting.
func (s *Server) Delay() Duration {
	if s.busyUntil <= s.eng.Now() {
		return 0
	}
	return s.busyUntil.Sub(s.eng.Now())
}

// Utilization reports the fraction of virtual time the server has been busy,
// measured against the engine's current clock. It returns 0 before any time
// has elapsed.
func (s *Server) Utilization() float64 {
	if s.eng.Now() == 0 {
		return 0
	}
	busy := s.busy
	// Work submitted but not yet completed counts only up to "now".
	if s.busyUntil > s.eng.Now() {
		busy -= s.busyUntil.Sub(s.eng.Now())
	}
	return float64(busy) / float64(s.eng.Now())
}
