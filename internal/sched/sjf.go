package sched

// SJF is the shortest-job-first policy that the paper's introduction argues
// against: it needs a priori size information (JobView.SizeHint). Engines may
// perturb the hint to model estimation error, reproducing the paper's claim
// that under-estimated large jobs delay all smaller jobs behind them.
//
// The scheduler carries sort scratch, so one instance must not be shared
// between concurrent simulation runs.
type SJF struct {
	entries []viewEntry
}

// NewSJF returns the SJF baseline scheduler.
func NewSJF() *SJF { return &SJF{} }

var (
	_ Scheduler        = (*SJF)(nil)
	_ BufferedAssigner = (*SJF)(nil)
)

// Name implements Scheduler.
func (s *SJF) Name() string { return "SJF" }

// Assign implements Scheduler.
func (s *SJF) Assign(now float64, capacity float64, jobs []JobView) Assignment {
	out := NewAssignment(jobs)
	s.AssignInto(now, capacity, jobs, out)
	return out
}

// AssignInto implements BufferedAssigner.
func (s *SJF) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	sh := out.Reset(jobs)
	entries := buildEntries(&s.entries, jobs, JobView.SizeHint)
	sortEntries(entries)
	fillInOrderInto(capacity, entries, jobs, sh)
}

// SRTF is the preemptive shortest-remaining-time-first policy. Like SJF it
// requires size information (JobView.RemainingSizeHint).
//
// The scheduler carries sort scratch, so one instance must not be shared
// between concurrent simulation runs.
type SRTF struct {
	entries []viewEntry
}

// NewSRTF returns the SRTF baseline scheduler.
func NewSRTF() *SRTF { return &SRTF{} }

var (
	_ Scheduler        = (*SRTF)(nil)
	_ BufferedAssigner = (*SRTF)(nil)
)

// Name implements Scheduler.
func (s *SRTF) Name() string { return "SRTF" }

// Assign implements Scheduler.
func (s *SRTF) Assign(now float64, capacity float64, jobs []JobView) Assignment {
	out := NewAssignment(jobs)
	s.AssignInto(now, capacity, jobs, out)
	return out
}

// AssignInto implements BufferedAssigner.
func (s *SRTF) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	sh := out.Reset(jobs)
	entries := buildEntries(&s.entries, jobs, JobView.RemainingSizeHint)
	sortEntries(entries)
	fillInOrderInto(capacity, entries, jobs, sh)
}
