package sched

import (
	"fmt"
	"slices"
)

// BufferedAssigner is the allocation-free variant of Scheduler.Assign: out
// arrives bound to jobs (see Assignment.Bind), and the policy zeroes it and
// fills it with exactly the shares Assign would return, reusing
// policy-owned scratch buffers instead of allocating per round. All policies
// in this package and internal/core implement it; the engines call it on
// the hot path. A policy carrying scratch buffers is not safe for concurrent
// use — use one instance per simulation run.
type BufferedAssigner interface {
	AssignInto(now float64, capacity float64, jobs []JobView, out Assignment)
}

// Observer is implemented by stateful policies (LAS_MQ and wrappers around
// it) whose Assign mutates internal state: Observe applies exactly that
// state mutation — queue demotions, completion tracking, dropping departed
// jobs — without computing an allocation. The task-level engine calls it at
// instants where it skips a full scheduling round, so that skipping rounds
// cannot change the policy's state trajectory. Observe followed by Assign
// at the same instant must behave like Assign alone (the mutation is
// idempotent at a fixed time).
type Observer interface {
	Observe(now float64, jobs []JobView)
}

// ObserveHinter extends Observer for policies that can bound when their
// next state change happens: ObserveHorizon returns the earliest virtual
// time strictly after now at which Observe could mutate state, given
// per-job upper bounds on the growth rate of the policy's decision metric,
// slot-aligned with jobs (for the fluid engine these are the exact
// allocation rates; the task-level engine passes conservative bounds derived
// from container usage). The engine may skip Observe calls before the
// horizon as long as the job set and the rate bounds are unchanged.
type ObserveHinter interface {
	Observer
	ObserveHorizon(now float64, jobs []JobView, rates Assignment) float64
}

// viewEntry caches one job's sort key and tie-break so ordering policies
// sort small concrete records instead of making interface calls inside a
// comparator; slot locates the job's view and share.
type viewEntry struct {
	key  float64
	seq  int
	slot int
}

// buildEntries fills scratch (reusing its backing array) with
// (key(j), Seq, slot) for every job.
func buildEntries(scratch *[]viewEntry, jobs []JobView, key func(JobView) float64) []viewEntry {
	entries := (*scratch)[:0]
	for i, j := range jobs {
		entries = append(entries, viewEntry{key: key(j), seq: j.Seq(), slot: i})
	}
	*scratch = entries
	return entries
}

// sortEntries orders entries by (key, seq) ascending. Sequence numbers are
// unique, so the order is total and a stable sort is equivalent to any
// correct sort. Already-ordered input — the common case round over round —
// is detected with one linear scan and skipped.
func sortEntries(entries []viewEntry) {
	sorted := true
	for i := 1; i < len(entries); i++ {
		if less(entries[i], entries[i-1]) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	slices.SortFunc(entries, func(a, b viewEntry) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	})
}

func less(a, b viewEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// fillEntry is one job in a water-filling pass.
type fillEntry struct {
	slot   int
	demand float64
	weight float64
}

// fillInOrderInto grants each entry's job min(demand, remaining capacity) in
// entry order, writing shares into their slots of out, and returns the
// total granted.
func fillInOrderInto(capacity float64, entries []viewEntry, jobs []JobView, out []float64) float64 {
	var granted float64
	for i := range entries {
		if capacity <= 0 {
			break
		}
		d := jobs[entries[i].slot].ReadyDemand()
		if d <= 0 {
			continue
		}
		x := d
		if capacity < x {
			x = capacity
		}
		out[entries[i].slot] = x
		capacity -= x
		granted += x
	}
	return granted
}

// fillActive performs demand-capped weighted max-min sharing (progressive
// water filling) over the active entries, compacting the slice in place as
// jobs saturate. Shares are added into out; the return value is the total
// granted, accumulated in deterministic entry order.
func fillActive(capacity float64, active []fillEntry, out []float64) float64 {
	const eps = 1e-12
	var granted float64
	for capacity > eps && len(active) > 0 {
		var totalW float64
		for i := range active {
			totalW += active[i].weight
		}
		perWeight := capacity / totalW
		// Saturate every job whose demand is within its proportional share.
		k := 0
		saturated := false
		for i := range active {
			e := active[i]
			share := perWeight * e.weight
			if e.demand <= share+eps {
				out[e.slot] += e.demand
				capacity -= e.demand
				granted += e.demand
				saturated = true
			} else {
				active[k] = e
				k++
			}
		}
		if !saturated {
			// No bottlenecked jobs: everyone takes the proportional share.
			for i := range active {
				x := perWeight * active[i].weight
				out[active[i].slot] += x
				granted += x
			}
			return granted
		}
		active = active[:k]
	}
	return granted
}

// weightedFillInto runs fillActive over the jobs with positive demand and
// weight, reusing scratch for the active set.
func weightedFillInto(capacity float64, jobs []JobView, weight func(JobView) float64, out []float64, scratch *[]fillEntry) float64 {
	active := (*scratch)[:0]
	for i, j := range jobs {
		d := j.ReadyDemand()
		w := weight(j)
		if d <= 0 || w <= 0 {
			continue
		}
		active = append(active, fillEntry{slot: i, demand: d, weight: w})
	}
	*scratch = active
	return fillActive(capacity, active, out)
}

// assignInto dispatches to p's AssignInto when implemented, otherwise
// copies a fresh p.Assign result into out. Wrapper policies (Blend) use it
// so arbitrary components keep working.
func assignInto(p Scheduler, now, capacity float64, jobs []JobView, out Assignment) {
	if ba, ok := p.(BufferedAssigner); ok {
		ba.AssignInto(now, capacity, jobs, out)
		return
	}
	fresh := p.Assign(now, capacity, jobs)
	if fresh.Len() != len(jobs) {
		panic(fmt.Sprintf("sched: %s assigned %d slots for %d jobs", p.Name(), fresh.Len(), len(jobs)))
	}
	copy(out.Reset(jobs), fresh.shares)
}
