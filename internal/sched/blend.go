package sched

import (
	"fmt"
	"math"

	"lasmq/internal/obs"
)

// Blend mixes two policies' allocations convexly — the paper's second
// future-work direction ("design a tunable parameter to make the tradeoff
// [between fairness and job response times] and flexibly adjust the
// performance as needed"). With theta = 0 the blend is the primary policy
// (e.g. LAS_MQ, best mean response); with theta = 1 it is the secondary
// (e.g. Fair, best fairness); values in between trade mean response time for
// tail slowdown.
//
// Because both component allocations respect capacity and per-job demand,
// any convex combination does too, and the blend stays work conserving when
// both components are.
type Blend struct {
	primary   Scheduler
	secondary Scheduler
	theta     float64

	pa, sa Assignment // scratch for component allocations
}

var (
	_ Scheduler        = (*Blend)(nil)
	_ BufferedAssigner = (*Blend)(nil)
	_ Observer         = (*Blend)(nil)
	_ ObserveHinter    = (*Blend)(nil)
	_ Hinter           = (*Blend)(nil)
	_ obs.ProbeSetter  = (*Blend)(nil)
)

// NewBlend returns a scheduler allocating
// (1-theta)*primary + theta*secondary. theta must be in [0, 1].
func NewBlend(primary, secondary Scheduler, theta float64) (*Blend, error) {
	if primary == nil || secondary == nil {
		return nil, fmt.Errorf("sched: blend components must be non-nil")
	}
	if theta < 0 || theta > 1 {
		return nil, fmt.Errorf("sched: blend theta must be in [0,1], got %v", theta)
	}
	return &Blend{primary: primary, secondary: secondary, theta: theta}, nil
}

// Name implements Scheduler.
func (b *Blend) Name() string {
	return fmt.Sprintf("BLEND(%s,%s,%.2f)", b.primary.Name(), b.secondary.Name(), b.theta)
}

// Theta returns the blend parameter.
func (b *Blend) Theta() float64 { return b.theta }

// SetProbe implements obs.ProbeSetter by forwarding the probe to both
// components, so a blend wrapping LAS_MQ keeps demotion telemetry flowing.
func (b *Blend) SetProbe(p obs.Probe) {
	if ps, ok := b.primary.(obs.ProbeSetter); ok {
		ps.SetProbe(p)
	}
	if ps, ok := b.secondary.(obs.ProbeSetter); ok {
		ps.SetProbe(p)
	}
}

// Assign implements Scheduler.
func (b *Blend) Assign(now float64, capacity float64, jobs []JobView) Assignment {
	out := NewAssignment(jobs)
	b.AssignInto(now, capacity, jobs, out)
	return out
}

// AssignInto implements BufferedAssigner, reusing scratch assignments for
// the component allocations.
func (b *Blend) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	if b.theta == 0 {
		assignInto(b.primary, now, capacity, jobs, out)
		return
	}
	if b.theta == 1 {
		assignInto(b.secondary, now, capacity, jobs, out)
		return
	}
	b.pa.Bind(jobs)
	b.sa.Bind(jobs)
	assignInto(b.primary, now, capacity, jobs, b.pa)
	assignInto(b.secondary, now, capacity, jobs, b.sa)
	sh := out.Reset(jobs)
	for i := range sh {
		sh[i] += (1 - b.theta) * b.pa.shares[i]
		sh[i] += b.theta * b.sa.shares[i]
	}
}

// Observe implements Observer by forwarding to stateful components, so a
// blend wrapping LAS_MQ keeps its queue state in sync even at instants the
// engine skips a full scheduling round. A blend with theta strictly between
// 0 and 1 invokes BOTH components' Assign each round, so both components'
// state must advance.
func (b *Blend) Observe(now float64, jobs []JobView) {
	if o, ok := b.primary.(Observer); ok && b.theta < 1 {
		o.Observe(now, jobs)
	}
	if o, ok := b.secondary.(Observer); ok && b.theta > 0 {
		o.Observe(now, jobs)
	}
}

// ObserveHorizon implements ObserveHinter so that wrapping a horizon-
// hinting policy (LAS_MQ) in a blend does not silently disable the
// substrate's observation gating. The blend's horizon is the minimum over
// its active components (primary when theta < 1, secondary when theta > 0):
// a horizon-hinting component contributes its own horizon, a stateful
// component without a hint forces `now` (it must be observed every round —
// the conservative answer), and a stateless component never constrains.
func (b *Blend) ObserveHorizon(now float64, jobs []JobView, rates Assignment) float64 {
	horizon := math.Inf(1)
	if b.theta < 1 {
		if t := componentObserveHorizon(b.primary, now, jobs, rates); t < horizon {
			horizon = t
		}
	}
	if b.theta > 0 {
		if t := componentObserveHorizon(b.secondary, now, jobs, rates); t < horizon {
			horizon = t
		}
	}
	return horizon
}

func componentObserveHorizon(c Scheduler, now float64, jobs []JobView, rates Assignment) float64 {
	if h, ok := c.(ObserveHinter); ok {
		return h.ObserveHorizon(now, jobs, rates)
	}
	if _, ok := c.(Observer); ok {
		return now
	}
	return math.Inf(1)
}

// Horizon implements Hinter: the earliest change point of either component,
// evaluated against the blended allocation (both components' horizons are
// pure functions of the allocation they are given).
func (b *Blend) Horizon(now float64, jobs []JobView, alloc Assignment) float64 {
	horizon := math.Inf(1)
	if h, ok := b.primary.(Hinter); ok {
		if t := h.Horizon(now, jobs, alloc); t < horizon {
			horizon = t
		}
	}
	if h, ok := b.secondary.(Hinter); ok {
		if t := h.Horizon(now, jobs, alloc); t < horizon {
			horizon = t
		}
	}
	return horizon
}
