package sched

import (
	"math"
	"slices"
)

// ExactSizer is implemented by engine job views that can report the job's
// exact remaining service (total minus attained), as opposed to the
// possibly-perturbed RemainingSizeHint. The SRPT baseline uses it to be a
// true clairvoyant optimum rather than an estimate-driven heuristic; views
// without it fall back to the hint.
type ExactSizer interface {
	ExactRemaining() float64
}

// exactRemaining reads the exact remaining service when the view offers it.
func exactRemaining(j JobView) float64 {
	if e, ok := j.(ExactSizer); ok {
		return e.ExactRemaining()
	}
	return j.RemainingSizeHint()
}

// srptRec is SRPT's persistent record of one job: the sort key under which
// its entry was last filed, used to binary-locate the entry on update and
// removal.
type srptRec struct {
	rem float64
	seq int
}

// srptEntry is one job in the persistent remaining-service order; ref
// addresses the job's roster record.
type srptEntry struct {
	rem float64
	seq int
	ref int
}

// SRPT is the preemptive shortest-remaining-processing-time baseline with
// exact sizes — the clairvoyant optimum the paper's oblivious policies are
// measured against. Unlike SRTF it reads exact remaining service through
// ExactSizer, immune to hint perturbation.
//
// The remaining-service order is persistent across rounds (the PR 4
// incremental sorted-list machinery): arrivals binary-insert, departures
// binary-remove by their stored key, and in-place remaining-service decay —
// which almost never inverts the order, since the jobs being served are
// already the smallest — marks the list dirty for a single sortedness walk
// instead of an eager re-sort.
//
// The scheduler carries persistent state, so one instance must not be shared
// between concurrent simulation runs.
type SRPT struct {
	roster  Roster[srptRec]
	ordered []srptEntry
	dirty   bool
}

// NewSRPT returns the exact-SRPT baseline scheduler.
func NewSRPT() *SRPT { return &SRPT{} }

var (
	_ Scheduler        = (*SRPT)(nil)
	_ BufferedAssigner = (*SRPT)(nil)
	_ Hinter           = (*SRPT)(nil)
	_ Observer         = (*SRPT)(nil)
)

// Name implements Scheduler.
func (s *SRPT) Name() string { return "SRPT" }

// Assign implements Scheduler.
func (s *SRPT) Assign(now float64, capacity float64, jobs []JobView) Assignment {
	out := NewAssignment(jobs)
	s.AssignInto(now, capacity, jobs, out)
	return out
}

// AssignInto implements BufferedAssigner.
func (s *SRPT) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	sh := out.Reset(jobs)
	s.sweep(jobs)
	s.restoreOrder()
	for i := range s.ordered {
		if capacity <= 0 {
			break
		}
		slot := s.roster.Slot(s.ordered[i].ref)
		d := jobs[slot].ReadyDemand()
		if d <= 0 {
			continue
		}
		x := d
		if capacity < x {
			x = capacity
		}
		sh[slot] = x
		capacity -= x
	}
}

// Observe implements Observer: it keeps the persistent order in sync on
// rounds where the engine skips the allocation.
func (s *SRPT) Observe(now float64, jobs []JobView) {
	s.sweep(jobs)
	s.restoreOrder()
}

// sweep syncs the persistent order with the current views: binary insertion
// of arrivals, removal of departures by stored key, and in-place refresh of
// remaining service (deferring the rarely-needed re-sort to restoreOrder's
// sortedness walk).
func (s *SRPT) sweep(jobs []JobView) {
	s.roster.Begin()
	for i, j := range jobs {
		rem := exactRemaining(j)
		ref, ok := s.roster.Lookup(j.ID())
		if !ok {
			ref = s.roster.Add(j.ID())
			seq := j.Seq()
			s.insertEntry(srptEntry{rem: rem, seq: seq, ref: ref})
			*s.roster.Rec(ref) = srptRec{rem: rem, seq: seq}
		} else if rec := s.roster.Rec(ref); rem != rec.rem {
			if pos := s.findEntry(*rec, ref); pos >= 0 {
				s.ordered[pos].rem = rem
			}
			s.dirty = true
			rec.rem = rem
		}
		s.roster.Visit(ref, i)
	}
	for _, ref := range s.roster.Departed() {
		s.removeEntry(*s.roster.Rec(ref), ref)
		s.roster.Remove(ref)
	}
}

// restoreOrder re-checks the list when members changed remaining service in
// place since the last round. One linear walk; the sort fallback fires only
// when the decay actually inverted the order.
func (s *SRPT) restoreOrder() {
	if !s.dirty {
		return
	}
	s.dirty = false
	if !isSortedSRPT(s.ordered) {
		slices.SortFunc(s.ordered, compareRemSeq)
	}
}

// insertEntry binary-inserts e. Inserting into a dirty list may place e
// imprecisely; restoreOrder repairs that before the order is ever read.
func (s *SRPT) insertEntry(e srptEntry) {
	list := s.ordered
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if srptLess(list[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	list = append(list, srptEntry{})
	copy(list[lo+1:], list[lo:])
	list[lo] = e
	s.ordered = list
}

// findEntry locates the job's entry by its stored key, falling back to a
// linear scan when the list is dirty. Returns -1 if absent.
func (s *SRPT) findEntry(rec srptRec, ref int) int {
	list := s.ordered
	key := srptEntry{rem: rec.rem, seq: rec.seq, ref: ref}
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if srptLess(list[mid], key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo].ref == ref {
		return lo
	}
	for i := range list {
		if list[i].ref == ref {
			return i
		}
	}
	return -1
}

// removeEntry deletes the job's entry from the ordered list.
func (s *SRPT) removeEntry(rec srptRec, ref int) {
	if pos := s.findEntry(rec, ref); pos >= 0 {
		list := s.ordered
		copy(list[pos:], list[pos+1:])
		s.ordered = list[:len(list)-1]
	}
}

// srptLess orders jobs by (remaining service, seq) ascending; sequence
// numbers are unique so the order is total.
func srptLess(a, b srptEntry) bool {
	if a.rem != b.rem {
		return a.rem < b.rem
	}
	return a.seq < b.seq
}

func isSortedSRPT(list []srptEntry) bool {
	for i := 1; i < len(list); i++ {
		if srptLess(list[i], list[i-1]) {
			return false
		}
	}
	return true
}

func compareRemSeq(a, b srptEntry) int {
	if a.rem != b.rem {
		if a.rem < b.rem {
			return -1
		}
		return 1
	}
	if a.seq < b.seq {
		return -1
	}
	return 1
}

// Horizon implements Hinter: under linear remaining-service decay the first
// order inversion always occurs between entries adjacent in the current
// order, when a faster-draining later entry catches a slower earlier one.
// alloc must be the assignment of the last AssignInto, whose slots the
// persistent order still refers to.
func (s *SRPT) Horizon(now float64, jobs []JobView, alloc Assignment) float64 {
	horizon := math.Inf(1)
	for i := 1; i < len(s.ordered); i++ {
		a, b := &s.ordered[i-1], &s.ordered[i]
		ra, rb := alloc.shares[s.roster.Slot(a.ref)], alloc.shares[s.roster.Slot(b.ref)]
		if rb <= ra {
			continue
		}
		dt := (b.rem - a.rem) / (rb - ra)
		if t := now + dt; t > now && t < horizon {
			horizon = t
		}
	}
	return horizon
}
