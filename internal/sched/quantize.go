package sched

import (
	"cmp"
	"math"
	"slices"
)

// Quantizer converts fractional container shares into whole containers
// using the largest-remainder method, reusing internal scratch and the
// result slice across rounds so quantization is allocation-free on the hot
// path. One Quantizer must not be shared between concurrent simulations;
// the returned targets are valid until the next call.
type Quantizer struct {
	shares  []qshare
	trim    []int
	targets []int

	// Scratch of the map adapter, QuantizeInto.
	demand []float64
	out    map[int]int
}

type qshare struct {
	slot  int
	id    int
	whole int
	frac  float64
}

// Targets converts the fractional shares in a into whole containers,
// slot-aligned with a's views. It never exceeds capacity, each slot's
// demand cap (demand[i] bounds slot i; +Inf leaves it uncapped), or (in
// total) the sum of the fractional shares rounded to the nearest whole
// container. The task-level engine uses it to turn policy output into
// physical container counts. Non-positive targets read as 0.
//
// Shares are summed in ascending job-ID order and remainder ties and the
// over-allocation trim break by ascending job ID, so the result — including
// the floating-point rounding of the share total — depends only on the
// (ID, share, demand) triples, not on the slot order. The views' IDs must be
// unique and capacity must not be negative.
func (qz *Quantizer) Targets(a Assignment, demand []float64, capacity int) []int {
	n := a.Len()
	if len(demand) != n {
		panic("sched: quantizer demand is not slot-aligned with the assignment")
	}
	targets := slices.Grow(qz.targets[:0], n)[:n]
	clear(targets)
	qz.targets = targets

	// Take the positive shares in ascending job-ID order: slot order when
	// their IDs already ascend (streamed engine rounds), sorted otherwise.
	shares := qz.shares[:0]
	ascending := true
	for i, x := range a.shares {
		if x <= 0 {
			continue
		}
		id := a.views[i].ID()
		if k := len(shares); k > 0 && id <= shares[k-1].id {
			ascending = false
		}
		shares = append(shares, qshare{slot: i, id: id})
	}
	if !ascending {
		slices.SortFunc(shares, func(p, q qshare) int { return cmp.Compare(p.id, q.id) })
	}
	qz.shares = shares
	var allocTotal float64
	total := 0
	for k := range shares {
		s := &shares[k]
		x := a.shares[s.slot]
		allocTotal += x
		if d := demand[s.slot]; x > d {
			x = d
		}
		s.whole = int(math.Floor(x + 1e-9))
		s.frac = x - float64(s.whole)
		total += s.whole
	}

	// Distribute the remaining whole containers (from summed fractions) to the
	// largest remainders first.
	budget := int(math.Round(allocTotal))
	if budget > capacity {
		budget = capacity
	}
	// Defensive: if the floored shares already exceed the budget (a policy
	// over-allocated), trim the largest holders first, deterministically.
	if total > budget {
		trim := qz.trim[:0]
		for i := range shares {
			trim = append(trim, i)
		}
		qz.trim = trim
		slices.SortFunc(trim, func(p, q int) int {
			if shares[p].whole != shares[q].whole {
				return shares[q].whole - shares[p].whole
			}
			return cmp.Compare(shares[p].id, shares[q].id)
		})
		for i := 0; total > budget; i = (i + 1) % len(trim) {
			if shares[trim[i]].whole > 0 {
				shares[trim[i]].whole--
				total--
			}
		}
	}

	// A share with a remainder takes one more container, largest remainder
	// first, while containers remain and its demand allows. Every one of the
	// first `remaining` candidates in that order is tried before the
	// containers can run out, whatever the order among them, so selecting
	// the top `remaining` is enough and the candidates need no sort; a
	// demand-capped candidate hands its container on to the next batch.
	remaining := budget - total
	cands := shares
	k := 0
	for i := range cands {
		if cands[i].frac > 1e-9 {
			cands[k], cands[i] = cands[i], cands[k]
			k++
		}
	}
	cands = cands[:k]
	for remaining > 0 && len(cands) > 0 {
		batch := cands
		if remaining < len(cands) {
			selectLargest(cands, remaining)
			batch = cands[:remaining]
		}
		cands = cands[len(batch):]
		for i := range batch {
			if float64(batch[i].whole+1) <= demand[batch[i].slot]+1e-9 {
				batch[i].whole++
				remaining--
			}
		}
	}
	for _, s := range shares {
		if s.whole > 0 {
			targets[s.slot] = s.whole
		}
	}
	return targets
}

// remainderBefore orders shares by remainder, largest first, ties by
// ascending job ID — a total order, since IDs are unique.
func remainderBefore(a, b *qshare) bool {
	if a.frac != b.frac {
		return a.frac > b.frac
	}
	return a.id < b.id
}

// selectLargest rearranges s so that s[:k] holds the k shares first in
// remainderBefore order (in no particular order among themselves), for
// 0 < k < len(s). It is a quickselect with a median-of-three pivot.
func selectLargest(s []qshare, k int) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if remainderBefore(&s[mid], &s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if remainderBefore(&s[hi], &s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if remainderBefore(&s[hi], &s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
		}
		// s[lo] ≤ s[mid] ≤ s[hi]; partition around the median (Lomuto, with
		// the pivot parked at hi).
		s[mid], s[hi] = s[hi], s[mid]
		p := lo
		for i := lo; i < hi; i++ {
			if remainderBefore(&s[i], &s[hi]) {
				s[i], s[p] = s[p], s[i]
				p++
			}
		}
		s[p], s[hi] = s[hi], s[p]
		switch {
		case p == k || p == k-1:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// QuantizeInto is the map form of Targets, kept for callers that hold
// demand by job ID: demand[id] caps the job's share, and a job missing from
// demand is uncapped. The returned map holds the positive targets by job ID
// and is valid until the next call.
func (qz *Quantizer) QuantizeInto(a Assignment, demand map[int]float64, capacity int) map[int]int {
	d := qz.demand[:0]
	for _, v := range a.views {
		c, ok := demand[v.ID()]
		if !ok {
			c = math.Inf(1)
		}
		d = append(d, c)
	}
	qz.demand = d
	targets := qz.Targets(a, d, capacity)
	if qz.out == nil {
		qz.out = make(map[int]int, len(targets))
	} else {
		clear(qz.out)
	}
	for i, t := range targets {
		if t > 0 {
			qz.out[a.views[i].ID()] = t
		}
	}
	return qz.out
}
