package sched

// FIFO serves jobs strictly in admission order: the earliest-admitted job
// receives containers up to its full demand before any later job receives
// anything. This is the paper's worst-performing baseline on mixed job
// sizes because small jobs are blocked behind large ones.
//
// The scheduler carries sort scratch, so one instance must not be shared
// between concurrent simulation runs.
type FIFO struct {
	entries []viewEntry
}

// NewFIFO returns the FIFO baseline scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

var (
	_ Scheduler        = (*FIFO)(nil)
	_ BufferedAssigner = (*FIFO)(nil)
)

// Name implements Scheduler.
func (f *FIFO) Name() string { return "FIFO" }

// Assign implements Scheduler.
func (f *FIFO) Assign(now float64, capacity float64, jobs []JobView) Assignment {
	out := NewAssignment(jobs)
	f.AssignInto(now, capacity, jobs, out)
	return out
}

// AssignInto implements BufferedAssigner.
func (f *FIFO) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	sh := out.Reset(jobs)
	entries := buildEntries(&f.entries, jobs, func(j JobView) float64 { return float64(j.Seq()) })
	sortEntries(entries)
	fillInOrderInto(capacity, entries, jobs, sh)
}
