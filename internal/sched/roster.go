package sched

import (
	"cmp"
	"slices"
)

// Roster is a stateful policy's persistent table of per-job records, keyed
// by job ID. A round looks each job up once (Lookup, or Add for arrivals)
// and marks it visited at its view slot; the jobs the round did not visit
// have left, and Departed lists them in ascending job-ID order. Records live
// in a slab addressed by a ref that stays fixed for the job's lifetime, so a
// policy can keep refs in its own ordered structures and reach a job's
// record and current slot without another lookup. The only map operations
// are one lookup per job per round, one insert per arrival and one delete
// per departure.
type Roster[R any] struct {
	index   map[int]int
	entries []rosterEntry[R]
	free    []int
	epoch   uint64
	visited int
	gone    []int
}

type rosterEntry[R any] struct {
	id    int
	slot  int
	stamp uint64 // epoch of the last visit
	live  bool
	rec   R
}

// Begin starts a round: no job is visited yet.
func (r *Roster[R]) Begin() {
	r.epoch++
	r.visited = 0
}

// Lookup returns the ref of the job's record.
func (r *Roster[R]) Lookup(id int) (ref int, ok bool) {
	ref, ok = r.index[id]
	return ref, ok
}

// Add creates a zero record for a job the roster does not hold and returns
// its ref. The record is not visited.
func (r *Roster[R]) Add(id int) int {
	if r.index == nil {
		r.index = make(map[int]int)
	}
	var ref int
	if n := len(r.free); n > 0 {
		ref = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		ref = len(r.entries)
		r.entries = append(r.entries, rosterEntry[R]{})
	}
	r.entries[ref] = rosterEntry[R]{id: id, live: true}
	r.index[id] = ref
	return ref
}

// Visit marks the record as seen this round at view slot.
func (r *Roster[R]) Visit(ref, slot int) {
	e := &r.entries[ref]
	if e.stamp != r.epoch {
		e.stamp = r.epoch
		r.visited++
	}
	e.slot = slot
}

// Departed returns the refs of the records not visited since Begin, in
// ascending job-ID order. The slice is reused by the next call.
func (r *Roster[R]) Departed() []int {
	gone := r.gone[:0]
	if r.visited < len(r.index) {
		for ref := range r.entries {
			if e := &r.entries[ref]; e.live && e.stamp != r.epoch {
				gone = append(gone, ref)
			}
		}
		slices.SortFunc(gone, func(a, b int) int { return cmp.Compare(r.entries[a].id, r.entries[b].id) })
	}
	r.gone = gone
	return gone
}

// Remove deletes the record; its ref may be reused by a later Add.
func (r *Roster[R]) Remove(ref int) {
	e := &r.entries[ref]
	delete(r.index, e.id)
	*e = rosterEntry[R]{}
	r.free = append(r.free, ref)
}

// Rec returns the record behind ref.
func (r *Roster[R]) Rec(ref int) *R { return &r.entries[ref].rec }

// ID returns the job ID behind ref.
func (r *Roster[R]) ID(ref int) int { return r.entries[ref].id }

// Slot returns the view slot of the record's last visit.
func (r *Roster[R]) Slot(ref int) int { return r.entries[ref].slot }

// Len is the number of records.
func (r *Roster[R]) Len() int { return len(r.index) }

// Refs appends the refs of all records to buf, in slab order.
func (r *Roster[R]) Refs(buf []int) []int {
	for ref := range r.entries {
		if r.entries[ref].live {
			buf = append(buf, ref)
		}
	}
	return buf
}
