package substrate

import "lasmq/internal/sched"

// ViewSet is the job-view registry a substrate refills every scheduling
// round: the sched.JobView slice handed to the policy, plus two optional
// slot-aligned side tables — each job's ready container demand (consumed by
// share quantization) and an upper bound on each job's decision-metric
// growth rate (consumed by sched.ObserveHinter horizon gating). Slot i of
// every table belongs to view i. All three reuse their backing storage
// across rounds, which is what keeps the steady scheduling path
// allocation-free.
type ViewSet struct {
	views      []sched.JobView
	demand     []float64
	rates      []float64
	withDemand bool
	withRates  bool
}

// Begin starts a new round, clearing the view slice and choosing which side
// tables the round fills: withDemand for full rounds that quantize shares,
// withRates for observation rounds feeding a horizon-hinting policy. A table
// the round does not fill must not be read.
func (vs *ViewSet) Begin(withDemand, withRates bool) {
	vs.views = vs.views[:0]
	vs.demand = vs.demand[:0]
	vs.rates = vs.rates[:0]
	vs.withDemand = withDemand
	vs.withRates = withRates
}

// Add registers one schedulable job's view for this round and returns its
// slot. The side tables the round fills get a zero entry at the slot.
func (vs *ViewSet) Add(v sched.JobView) int {
	vs.views = append(vs.views, v)
	if vs.withDemand {
		vs.demand = append(vs.demand, 0)
	}
	if vs.withRates {
		vs.rates = append(vs.rates, 0)
	}
	return len(vs.views) - 1
}

// SetDemand records the ready demand of the job at slot (Begin(true, ·)
// rounds).
func (vs *ViewSet) SetDemand(slot int, d float64) { vs.demand[slot] = d }

// SetRate records the metric-rate bound of the job at slot (Begin(·, true)
// rounds).
func (vs *ViewSet) SetRate(slot int, r float64) { vs.rates[slot] = r }

// Len is the number of views registered this round.
func (vs *ViewSet) Len() int { return len(vs.views) }

// Views returns this round's view slice, valid until the next Begin.
func (vs *ViewSet) Views() []sched.JobView { return vs.views }

// Demand returns the slot-aligned ready demand filled since Begin(true, ·).
func (vs *ViewSet) Demand() []float64 { return vs.demand }

// Rates returns the slot-aligned metric-rate bounds filled since
// Begin(·, true), bound to this round's views.
func (vs *ViewSet) Rates() sched.Assignment { return sched.AssignmentOf(vs.views, vs.rates) }

// HasRates reports whether this round carries rate bounds (Begin(·, true)).
func (vs *ViewSet) HasRates() bool { return vs.withRates }

// Reset empties the registry, dropping references into the caller's job
// state while keeping the backing storage — a pooled substrate arena calls
// this between runs so a recycled ViewSet cannot pin the previous workload.
func (vs *ViewSet) Reset() {
	clear(vs.views[:cap(vs.views)])
	vs.Begin(false, false)
}
