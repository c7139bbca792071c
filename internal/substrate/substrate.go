// Package substrate is the scheduling-substrate kernel shared by the three
// YARN-like substrates of this reproduction: the task-level discrete-event
// simulator (internal/engine), the event-driven fluid simulator
// (internal/fluid), and the live concurrent mini-YARN (internal/yarn). The
// paper's Fig. 4 architecture is one pluggable scheduler plugged into one
// substrate; this package is the substrate-independent half of that plug —
// everything a substrate needs to drive a sched.Scheduler correctly without
// knowing how time, containers, or task execution work.
//
// The kernel owns four pieces:
//
//   - Queue: the job-admission module (FIFO waiting queue, running-job cap,
//     admission sequence numbers, stuck-admission detection).
//   - ViewSet: the scratch-reusing registry of scheduler-facing job views a
//     substrate rebuilds each round, with the optional slot-aligned
//     ready-demand and metric-rate-bound side tables.
//   - Driver: the policy invocation loop — BufferedAssigner/Observer/
//     ObserveHinter/Hinter capability dispatch, allocation-buffer reuse, and
//     the observation-horizon gating that lets substrates skip dead rounds
//     without desynchronizing stateful policies.
//   - Result: the response-time/slowdown/per-bin accumulator behind every
//     substrate's result type.
//
// What stays substrate-local, deliberately: time itself (virtual event time,
// fluid continuous time, scaled wall clock), allocation enforcement
// (container quantization and task launch vs. fractional rates), and the
// metric-rate physics feeding ObserveHorizon — those depend on how each
// substrate models execution.
package substrate

import (
	"fmt"
	"math"
	"time"

	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

// Driver drives one sched.Scheduler on behalf of a substrate. It resolves
// the policy's optional capabilities once at construction, owns the reused
// allocation buffer for buffered policies (bound to each round's views
// before the policy fills it), and tracks the observation
// horizon that bounds when a skipped round must replay the policy's state
// mutation. A Driver (like the policy it wraps) is not safe for concurrent
// use: each run drives it from a single scheduling loop.
type Driver struct {
	policy    sched.Scheduler
	buffered  sched.BufferedAssigner
	observer  sched.Observer
	obsHinter sched.ObserveHinter
	hinter    sched.Hinter
	alloc     sched.Assignment
	probe     obs.Probe
	// latency receives the wall-clock seconds each round spends inside the
	// policy, resolved once at SetProbe. It is a side-channel, not a Probe
	// event: wall-clock readings differ run to run, and the deterministic
	// event-stream sinks (JSONL, ChromeTrace) must never see them.
	latency obs.RoundLatencyObserver

	// Observation gating for skipped rounds: obsHorizon is the earliest time
	// the policy's state could change, valid while dirty is false.
	dirty      bool
	obsHorizon float64
}

// NewDriver wraps a fresh policy instance for one run.
func NewDriver(policy sched.Scheduler) *Driver {
	d := &Driver{policy: policy, dirty: true}
	if b, ok := policy.(sched.BufferedAssigner); ok {
		d.buffered = b
	}
	if o, ok := policy.(sched.Observer); ok {
		d.observer = o
	}
	if h, ok := policy.(sched.ObserveHinter); ok {
		d.obsHinter = h
	}
	if h, ok := policy.(sched.Hinter); ok {
		d.hinter = h
	}
	return d
}

// Policy returns the wrapped scheduler.
func (d *Driver) Policy() sched.Scheduler { return d.policy }

// SetProbe attaches a telemetry probe to the driver and, when the policy
// (or a wrapper around it) emits its own events, forwards the probe through
// obs.ProbeSetter. A nil probe detaches telemetry everywhere.
func (d *Driver) SetProbe(p obs.Probe) {
	d.probe = p
	d.latency = nil
	if h := obs.FindHistograms(p); h != nil {
		d.latency = h
	}
	if ps, ok := d.policy.(obs.ProbeSetter); ok {
		ps.SetProbe(p)
	}
}

// Name reports the policy name for results.
func (d *Driver) Name() string { return d.policy.Name() }

// Assign runs one full policy invocation, going through AssignInto when the
// policy supports buffered assignment. The returned assignment is bound to
// views (slot i belongs to views[i]); for buffered policies it aliases the
// driver's buffer and is valid until the next Assign call. A full invocation
// mutates stateful policies, so it also invalidates any previously computed
// observation horizon.
func (d *Driver) Assign(now, capacity float64, views []sched.JobView) sched.Assignment {
	d.dirty = true
	if d.probe != nil {
		d.probe.RoundExecuted(now, len(views))
	}
	if d.latency == nil {
		return d.assign(now, capacity, views)
	}
	// Time only the policy invocation (wall-clock), feeding the round-latency
	// histogram. Guarded so unprobed runs never touch the clock — the
	// nil-probe path stays branch-and-return.
	start := time.Now()
	out := d.assign(now, capacity, views)
	d.latency.ObserveRoundLatency(time.Since(start).Seconds())
	return out
}

func (d *Driver) assign(now, capacity float64, views []sched.JobView) sched.Assignment {
	if d.buffered != nil {
		d.alloc.Bind(views)
		d.buffered.AssignInto(now, capacity, views, d.alloc)
		return d.alloc
	}
	out := d.policy.Assign(now, capacity, views)
	if out.Len() != len(views) {
		panic(fmt.Sprintf("substrate: %s assigned %d slots for %d jobs", d.policy.Name(), out.Len(), len(views)))
	}
	return out
}

// MarkDirty invalidates the observation horizon. Substrates call it whenever
// the inputs behind the policy's decision metrics change outside a round —
// an attempt ends, a job is admitted — so the next skipped round re-observes.
func (d *Driver) MarkDirty() { d.dirty = true }

// Observes reports whether the policy is stateful (implements
// sched.Observer) and therefore needs skipped rounds replayed at all.
func (d *Driver) Observes() bool { return d.observer != nil }

// NeedsRates reports whether Observe can exploit per-job metric-rate bounds
// (the policy implements sched.ObserveHinter); substrates that can compute
// bounds should fill them into the ViewSet so observation calls are gated by
// the horizon instead of firing every skipped round.
func (d *Driver) NeedsRates() bool { return d.obsHinter != nil }

// ObservationDue reports whether a skipped round at time now must replay the
// policy's state mutation via Observe. Stateless policies never need it; for
// horizon-hinting policies the call is elided while the job set and metric
// rates are unchanged (not dirty) and now is strictly before the horizon.
func (d *Driver) ObservationDue(now float64) bool {
	if d.observer == nil {
		return false
	}
	if d.obsHinter != nil && !d.dirty && now < d.obsHorizon {
		return false
	}
	return true
}

// Observe replays the policy's per-round state mutation for a skipped round
// over the views in vs. An empty view set is a no-op: a full round returns
// before invoking the policy when there is nothing to schedule, and skipped
// rounds must match. When the policy hints horizons and vs carries rate
// bounds, the next horizon is recorded and the dirty flag cleared, arming
// ObservationDue's fast path.
func (d *Driver) Observe(now float64, vs *ViewSet) {
	if d.observer == nil || vs.Len() == 0 {
		return
	}
	d.observer.Observe(now, vs.views)
	if d.obsHinter != nil && vs.withRates {
		d.obsHorizon = d.obsHinter.ObserveHorizon(now, vs.views, vs.Rates())
		d.dirty = false
	}
}

// Horizon returns the earliest time strictly after now at which the policy's
// decision could change given the allocation it just returned, or +Inf when
// the policy publishes no change points (does not implement sched.Hinter).
func (d *Driver) Horizon(now float64, views []sched.JobView, alloc sched.Assignment) float64 {
	if d.hinter == nil {
		return math.Inf(1)
	}
	return d.hinter.Horizon(now, views, alloc)
}
