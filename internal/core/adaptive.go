package core

import (
	"fmt"
	"math"
	"sort"

	"lasmq/internal/mlq"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

// AdaptiveConfig controls the adaptive-threshold variant of LAS_MQ — the
// paper's first future-work direction ("make the scheduler more adaptable
// for different workloads"): instead of fixing the first threshold and step
// a priori, the scheduler refits the whole threshold ladder online from the
// sizes of completed jobs.
type AdaptiveConfig struct {
	// Queues is the number of priority queues k.
	Queues int
	// QueueWeightDecay is the cross-queue weight decay (see Config).
	QueueWeightDecay float64
	// StageAware and OrderByDemand select the two testbed features
	// (see Config).
	StageAware    bool
	OrderByDemand bool
	// Initial provides the threshold ladder used until enough completions
	// have been observed: first threshold and step.
	InitialThreshold float64
	InitialStep      float64
	// WarmupJobs is the number of completed jobs observed before the first
	// refit.
	WarmupJobs int
	// RefitEvery is the number of completions between refits.
	RefitEvery int
	// LowQuantile sets the first threshold: the q-quantile of observed
	// completed-job sizes (so roughly a q fraction of jobs finish in the
	// top queue). HighQuantile anchors the last threshold.
	LowQuantile  float64
	HighQuantile float64
	// MaxHistory bounds the completion-size history (a sliding window, so
	// the ladder tracks workload drift). Zero means unbounded.
	MaxHistory int
}

// DefaultAdaptiveConfig returns an adaptive scheduler that starts from the
// paper's testbed ladder and refits every 50 completions.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Queues:           10,
		QueueWeightDecay: 8,
		StageAware:       true,
		OrderByDemand:    true,
		InitialThreshold: 100,
		InitialStep:      10,
		WarmupJobs:       50,
		RefitEvery:       50,
		LowQuantile:      0.2,
		HighQuantile:     0.98,
		MaxHistory:       5000,
	}
}

// Adaptive is LAS_MQ with an online-fitted threshold ladder. It observes the
// attained service of jobs that leave the system, and periodically rebuilds
// the exponential ladder so the first threshold sits at the LowQuantile of
// completed job sizes and the second-to-last queue's threshold at the
// HighQuantile. Jobs are re-placed under the new ladder from their current
// service metric.
type Adaptive struct {
	cfg   AdaptiveConfig
	inner *LASMQ

	attained   map[int]float64 // last observed metric per live job
	history    []float64       // completed-job sizes (sliding window)
	sinceRefit int
	refits     int
	totalSeen  int

	// Scratch reused across rounds.
	seen     map[int]bool
	departed []int

	// probe, when non-nil, receives threshold-refit telemetry; queue events
	// flow from the inner LAS_MQ, which shares the same probe.
	probe obs.Probe
}

var (
	_ sched.Scheduler        = (*Adaptive)(nil)
	_ sched.BufferedAssigner = (*Adaptive)(nil)
	_ sched.Observer         = (*Adaptive)(nil)
	_ sched.Hinter           = (*Adaptive)(nil)
	_ obs.ProbeSetter        = (*Adaptive)(nil)
)

// NewAdaptive validates cfg and returns a fresh adaptive scheduler.
func NewAdaptive(cfg AdaptiveConfig) (*Adaptive, error) {
	if cfg.WarmupJobs < 1 {
		return nil, fmt.Errorf("core: warmup jobs must be >= 1, got %d", cfg.WarmupJobs)
	}
	if cfg.RefitEvery < 1 {
		return nil, fmt.Errorf("core: refit interval must be >= 1, got %d", cfg.RefitEvery)
	}
	if cfg.LowQuantile <= 0 || cfg.HighQuantile >= 1 || cfg.LowQuantile >= cfg.HighQuantile {
		return nil, fmt.Errorf("core: need 0 < low quantile < high quantile < 1, got %v and %v",
			cfg.LowQuantile, cfg.HighQuantile)
	}
	if cfg.MaxHistory < 0 {
		return nil, fmt.Errorf("core: max history must be >= 0, got %d", cfg.MaxHistory)
	}
	inner, err := New(Config{
		Queues:           cfg.Queues,
		FirstThreshold:   cfg.InitialThreshold,
		Step:             cfg.InitialStep,
		QueueWeightDecay: cfg.QueueWeightDecay,
		StageAware:       cfg.StageAware,
		OrderByDemand:    cfg.OrderByDemand,
	})
	if err != nil {
		return nil, err
	}
	return &Adaptive{
		cfg:      cfg,
		inner:    inner,
		attained: make(map[int]float64),
		seen:     make(map[int]bool),
	}, nil
}

// Name implements sched.Scheduler.
func (a *Adaptive) Name() string { return "LAS_MQ_ADAPTIVE" }

// SetProbe implements obs.ProbeSetter, forwarding the probe to the inner
// LAS_MQ so queue-trajectory events keep flowing when the policy is used
// through the adaptive wrapper.
func (a *Adaptive) SetProbe(p obs.Probe) {
	a.probe = p
	a.inner.SetProbe(p)
}

// Refits reports how many times the threshold ladder has been refitted.
func (a *Adaptive) Refits() int { return a.refits }

// Thresholds returns the current ladder (first threshold of each demoting
// queue), for instrumentation.
func (a *Adaptive) Thresholds() []float64 {
	out := make([]float64, 0, a.cfg.Queues-1)
	for i := 0; i < a.cfg.Queues-1; i++ {
		out = append(out, a.inner.levels.Threshold(i))
	}
	return out
}

// Assign implements sched.Scheduler: record completions, refit if due, then
// delegate to the inner LAS_MQ.
func (a *Adaptive) Assign(now float64, capacity float64, jobs []sched.JobView) sched.Assignment {
	out := sched.NewAssignment(jobs)
	a.AssignInto(now, capacity, jobs, out)
	return out
}

// AssignInto implements sched.BufferedAssigner: record completions, refit if
// due, then delegate to the inner LAS_MQ.
func (a *Adaptive) AssignInto(now float64, capacity float64, jobs []sched.JobView, out sched.Assignment) {
	a.observe(jobs)
	if a.dueForRefit() {
		a.refit(now)
	}
	a.inner.AssignInto(now, capacity, jobs, out)
}

// Observe implements sched.Observer: exactly the state mutation AssignInto
// performs, without computing an allocation. The Adaptive scheduler does NOT
// implement sched.ObserveHinter: its completion-size history depends on
// seeing every round's job view, so Observe itself must never be skipped.
func (a *Adaptive) Observe(now float64, jobs []sched.JobView) {
	a.observe(jobs)
	if a.dueForRefit() {
		a.refit(now)
	}
	a.inner.Observe(now, jobs)
}

// Horizon implements sched.Hinter by delegation.
func (a *Adaptive) Horizon(now float64, jobs []sched.JobView, alloc sched.Assignment) float64 {
	return a.inner.Horizon(now, jobs, alloc)
}

// observe tracks live jobs' service metrics; a job that disappears from the
// view completed with (approximately) its last observed metric as size.
// Departures are appended to the history in ascending job-ID order so the
// sliding window's contents — and therefore the fitted ladder — do not
// depend on map iteration order.
func (a *Adaptive) observe(jobs []sched.JobView) {
	seen := a.seen
	clear(seen)
	for _, j := range jobs {
		seen[j.ID()] = true
		a.attained[j.ID()] = j.Attained()
	}
	departed := a.departed[:0]
	for id := range a.attained { // range-ok: departed ids are sorted before use
		if !seen[id] {
			departed = append(departed, id)
		}
	}
	a.departed = departed
	sort.Ints(departed)
	for _, id := range departed {
		size := a.attained[id]
		delete(a.attained, id)
		if size <= 0 {
			continue
		}
		a.history = append(a.history, size)
		if a.cfg.MaxHistory > 0 && len(a.history) > a.cfg.MaxHistory {
			a.history = a.history[len(a.history)-a.cfg.MaxHistory:]
		}
		a.sinceRefit++
		a.totalSeen++
	}
}

func (a *Adaptive) dueForRefit() bool {
	if a.totalSeen < a.cfg.WarmupJobs {
		return false
	}
	if a.refits == 0 {
		return true // first refit right after warmup
	}
	return a.sinceRefit >= a.cfg.RefitEvery
}

// refit rebuilds the exponential ladder from the completion-size history and
// re-places all tracked jobs under it.
func (a *Adaptive) refit(now float64) {
	k := a.cfg.Queues
	if k < 2 || len(a.history) == 0 {
		return
	}
	sorted := append([]float64(nil), a.history...)
	sort.Float64s(sorted)
	low := quantileSorted(sorted, a.cfg.LowQuantile)
	high := quantileSorted(sorted, a.cfg.HighQuantile)
	if low <= 0 {
		low = math.SmallestNonzeroFloat64
	}
	if high < low*2 {
		high = low * 2
	}
	// Ladder: alpha_0 = low, alpha_{k-2} = high.
	step := 2.0
	if k > 2 {
		step = math.Pow(high/low, 1/float64(k-2))
		if step < 1.5 {
			step = 1.5
		}
	}
	levels, err := mlq.New(k, low, step)
	if err != nil {
		return // keep the previous ladder; inputs were degenerate
	}
	// Re-place live jobs from their current metric (placement under a fresh
	// ladder; the demote-only rule applies from here on). The wholesale
	// re-placement invalidates the inner scheduler's incremental within-queue
	// order, which it rebuilds on its next round.
	a.inner.resetLevels(levels, a.attained)
	a.sinceRefit = 0
	a.refits++
	if a.probe != nil {
		a.probe.ThresholdRefit(now, low, step)
	}
}

// quantileSorted returns the q-quantile of a sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
