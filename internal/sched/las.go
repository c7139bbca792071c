package sched

import (
	"math"
	"sort"
)

// LAS is the least-attained-service baseline: all capacity goes to the jobs
// that have received the least service so far. Jobs whose attained service is
// (numerically) equal form a tie group and share capacity evenly, which makes
// the policy degrade to processor sharing when many equal-size jobs are
// present — exactly the pathology LAS_MQ is designed to avoid.
//
// The scheduler carries sort and water-filling scratch, so one instance must
// not be shared between concurrent simulation runs.
type LAS struct {
	entries []viewEntry
	fill    []fillEntry
	levels  []float64
}

// NewLAS returns the LAS baseline scheduler.
func NewLAS() *LAS { return &LAS{} }

var (
	_ Scheduler        = (*LAS)(nil)
	_ BufferedAssigner = (*LAS)(nil)
	_ Hinter           = (*LAS)(nil)
)

// lasTieEps is the tolerance under which two attained-service values are
// considered equal and their jobs share capacity evenly. Without a tolerance
// the fluid simulation would ping-pong between tied jobs in zero-length
// steps.
const lasTieEps = 1e-6

// Name implements Scheduler.
func (l *LAS) Name() string { return "LAS" }

// Assign implements Scheduler.
func (l *LAS) Assign(now float64, capacity float64, jobs []JobView) Assignment {
	out := NewAssignment(jobs)
	l.AssignInto(now, capacity, jobs, out)
	return out
}

// AssignInto implements BufferedAssigner.
func (l *LAS) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	sh := out.Reset(jobs)
	entries := buildEntries(&l.entries, jobs, JobView.Attained)
	sortEntries(entries)
	i := 0
	for i < len(entries) && capacity > 0 {
		// Collect the tie group starting at i.
		groupEnd := i + 1
		for groupEnd < len(entries) && entries[groupEnd].key-entries[i].key <= lasTieEps {
			groupEnd++
		}
		// Evenly share remaining capacity within the group, capped by demand
		// (unweighted max-min). Grants and the capacity they consume are
		// accumulated in group order, keeping the result deterministic.
		active := l.fill[:0]
		for _, e := range entries[i:groupEnd] {
			if d := jobs[e.slot].ReadyDemand(); d > 0 {
				active = append(active, fillEntry{slot: e.slot, demand: d, weight: 1})
			}
		}
		l.fill = active
		capacity -= fillActive(capacity, active, sh)
		i = groupEnd
	}
}

// Horizon implements Hinter: the decision changes when a served job's
// attained service catches up with the attained service of a job that is
// currently ahead of it.
func (l *LAS) Horizon(now float64, jobs []JobView, alloc Assignment) float64 {
	// Collect attained levels of all jobs, and find for each served job the
	// next level strictly above its own.
	levels := l.levels[:0]
	for _, j := range jobs {
		levels = append(levels, j.Attained())
	}
	l.levels = levels
	sort.Float64s(levels)

	horizon := math.Inf(1)
	for i, j := range jobs {
		rate := alloc.shares[i]
		if rate <= 0 {
			continue
		}
		a := j.Attained()
		// Next attained level strictly above a (beyond the tie tolerance).
		idx := sort.SearchFloat64s(levels, a+lasTieEps)
		if idx >= len(levels) {
			continue
		}
		t := now + (levels[idx]-a)/rate
		if t < horizon {
			horizon = t
		}
	}
	if horizon <= now {
		return math.Inf(1)
	}
	return horizon
}
