package sched_test

import (
	"testing"

	"lasmq/internal/sched"
)

func TestRosterDepartsUnvisitedInIDOrder(t *testing.T) {
	var r sched.Roster[float64]
	r.Begin()
	for slot, id := range []int{9, 3, 5} {
		ref := r.Add(id)
		*r.Rec(ref) = float64(id) / 2
		r.Visit(ref, slot)
	}
	if got := r.Departed(); len(got) != 0 {
		t.Fatalf("every record visited, yet %d departed", len(got))
	}

	r.Begin()
	ref3, ok := r.Lookup(3)
	if !ok || *r.Rec(ref3) != 1.5 {
		t.Fatalf("Lookup(3) = %d, %v", ref3, ok)
	}
	r.Visit(ref3, 0)
	gone := r.Departed()
	if len(gone) != 2 || r.ID(gone[0]) != 5 || r.ID(gone[1]) != 9 {
		t.Fatalf("departed %v, want jobs 5 then 9", gone)
	}
	freed := map[int]bool{}
	for _, ref := range gone {
		freed[ref] = true
		r.Remove(ref)
	}
	if r.Len() != 1 || r.Slot(ref3) != 0 {
		t.Fatalf("Len %d, slot %d after removals", r.Len(), r.Slot(ref3))
	}
	if _, ok := r.Lookup(9); ok {
		t.Fatal("removed job still found")
	}
	if ref := r.Add(12); !freed[ref] || *r.Rec(ref) != 0 {
		t.Fatalf("new record got ref %d (freed %v) holding %v, want a reused zeroed ref", ref, freed, *r.Rec(ref))
	}
	if refs := r.Refs(nil); len(refs) != 2 {
		t.Fatalf("Refs = %v, want 2 live records", refs)
	}
}
