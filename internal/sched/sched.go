// Package sched defines the scheduling policy interface shared by the
// task-level cluster simulator (internal/engine) and the fluid trace
// simulator (internal/fluid), plus the baseline policies the paper compares
// against: FIFO, Fair, LAS, and SJF/SRTF (the motivation baselines that
// require a priori size information).
//
// A policy is pure: it observes a snapshot of runnable jobs and returns a
// container share per job. Engines are responsible for enforcing capacity,
// quantizing shares to whole containers where needed, and driving time.
package sched

import (
	"fmt"
	"slices"
)

// JobView is the scheduler-facing snapshot of one runnable job. Both
// simulation engines implement it.
type JobView interface {
	// ID uniquely identifies the job within a run.
	ID() int
	// Seq is the admission sequence number; lower means admitted earlier.
	// FIFO and all tie-breaks use Seq so runs are deterministic.
	Seq() int
	// Priority is the job priority (the paper draws integers in [1,5]);
	// the Fair scheduler shares capacity proportionally to it.
	Priority() int
	// Attained is the exact service consumed so far, in container-time units.
	Attained() float64
	// Estimated is the service estimate used for queue demotion: attained
	// service plus the stage-aware projection of the current stage when the
	// engine supports stage progress, otherwise equal to Attained.
	Estimated() float64
	// ReadyDemand is the number of containers the job can use right now
	// (ready tasks of the current stage, respecting stage dependencies).
	ReadyDemand() float64
	// RemainingDemand is the number of containers needed by all remaining
	// tasks of the current stage, including running ones. LAS_MQ orders jobs
	// within a queue by this value.
	RemainingDemand() float64
	// SizeHint is an a priori estimate of the job's total service, used only
	// by the SJF baseline. Engines may perturb it to model estimation error.
	SizeHint() float64
	// RemainingSizeHint estimates the job's remaining service, used only by
	// the SRTF baseline.
	RemainingSizeHint() float64
}

// Assignment is one round's container shares, slot-aligned with the job
// views it is bound to: share i belongs to Views()[i]. Shares are
// fractional; the task-level engine quantizes them. An Assignment is a small
// value over two slices, so copies share their shares: a policy writes into
// the Assignment it is handed and the caller sees the writes.
type Assignment struct {
	views  []JobView
	shares []float64
}

// NewAssignment returns an all-zero assignment bound to jobs.
func NewAssignment(jobs []JobView) Assignment {
	return Assignment{views: jobs, shares: make([]float64, len(jobs))}
}

// AssignmentOf binds the slot-aligned shares to jobs without copying them.
func AssignmentOf(jobs []JobView, shares []float64) Assignment {
	if len(shares) != len(jobs) {
		panic(fmt.Sprintf("sched: %d shares for %d jobs", len(shares), len(jobs)))
	}
	return Assignment{views: jobs, shares: shares}
}

// Bind rebinds a to jobs with every share zero, reusing a's share storage
// when it is large enough. Drivers bind their buffer to a round's views
// before handing it to BufferedAssigner.AssignInto.
func (a *Assignment) Bind(jobs []JobView) {
	a.views = jobs
	a.shares = slices.Grow(a.shares[:0], len(jobs))[:len(jobs)]
	clear(a.shares)
}

// Reset checks that a is bound to a round of len(jobs) views, zeroes every
// share and returns the share slice for the policy to fill. Policies call it
// at the top of AssignInto.
func (a Assignment) Reset(jobs []JobView) []float64 {
	if len(a.shares) != len(jobs) {
		panic(fmt.Sprintf("sched: assignment bound to %d views, round has %d jobs", len(a.shares), len(jobs)))
	}
	clear(a.shares)
	return a.shares
}

// Len is the number of slots.
func (a Assignment) Len() int { return len(a.shares) }

// Views returns the job views the assignment is bound to.
func (a Assignment) Views() []JobView { return a.views }

// Shares returns the slot-aligned shares; writes go to the assignment.
func (a Assignment) Shares() []float64 { return a.shares }

// Share returns the share of the job with the given ID, or 0 when no slot
// holds it. It scans the slots, so it is for tests and reports, not for a
// per-job loop.
func (a Assignment) Share(id int) float64 {
	for i, v := range a.views {
		if v.ID() == id {
			return a.shares[i]
		}
	}
	return 0
}

// Scheduler decides how cluster capacity is split among runnable jobs.
type Scheduler interface {
	// Name identifies the policy in reports (e.g. "LAS_MQ", "FAIR").
	Name() string
	// Assign returns the share of capacity granted to each job, bound to
	// jobs (slot i belongs to jobs[i]). The sum of shares must not exceed
	// capacity and no job may receive more than its ReadyDemand.
	Assign(now float64, capacity float64, jobs []JobView) Assignment
}

// Hinter is implemented by policies whose decision can change before the
// next external event (arrival or completion). The fluid engine uses the
// horizon to re-invoke the scheduler exactly when needed, e.g. at LAS
// catch-up points or LAS_MQ queue-threshold crossings.
type Hinter interface {
	// Horizon returns the earliest virtual time strictly after now at which
	// the policy's decision could change given the allocation it just
	// returned (bound to jobs), or +Inf if only external events can change
	// it.
	Horizon(now float64, jobs []JobView, alloc Assignment) float64
}

// Total returns the sum of all shares, in slot order.
func (a Assignment) Total() float64 {
	var sum float64
	for _, v := range a.shares {
		sum += v
	}
	return sum
}
