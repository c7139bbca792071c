package sched_test

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lasmq/internal/sched"
)

// mapQuantizer and its QuantizeInto are the map-keyed quantizer the dense
// core replaced, kept verbatim as the reference the core must match exactly.
type mapQuantizer struct {
	shares []qshare
	trim   []int
	out    map[int]int
}

type qshare struct {
	id    int
	whole int
	frac  float64
}

type mapAssignment = map[int]float64

func (qz *mapQuantizer) QuantizeInto(alloc mapAssignment, demand map[int]float64, capacity int) map[int]int {
	shares := qz.shares[:0]
	for id := range alloc { // range-ok: ids are sorted immediately below
		shares = append(shares, qshare{id: id})
	}
	// Job IDs are unique, so each comparator below is a total order and the
	// unstable sort is deterministic; slices.SortFunc keeps the round free of
	// sort.Slice's interface/reflect allocations.
	slices.SortFunc(shares, func(a, b qshare) int { return a.id - b.id })
	var allocTotal float64
	total := 0
	k := 0
	for _, s := range shares {
		x := alloc[s.id]
		if x <= 0 {
			continue
		}
		allocTotal += x
		if d, ok := demand[s.id]; ok && x > d {
			x = d
		}
		whole := int(math.Floor(x + 1e-9))
		shares[k] = qshare{id: s.id, whole: whole, frac: x - float64(whole)}
		total += whole
		k++
	}
	shares = shares[:k]
	qz.shares = shares

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
		slices.SortFunc(trim, func(a, b int) int {
			if shares[a].whole != shares[b].whole {
				return shares[b].whole - shares[a].whole
			}
			return shares[a].id - shares[b].id
		})
		for i := 0; total > budget; i = (i + 1) % len(trim) {
			if shares[trim[i]].whole > 0 {
				shares[trim[i]].whole--
				total--
			}
		}
	}
	remaining := budget - total
	slices.SortFunc(shares, func(a, b qshare) int {
		if a.frac != b.frac {
			if a.frac > b.frac {
				return -1
			}
			return 1
		}
		return a.id - b.id
	})
	if qz.out == nil {
		qz.out = make(map[int]int, len(shares))
	} else {
		clear(qz.out)
	}
	for _, s := range shares {
		n := s.whole
		if remaining > 0 && s.frac > 1e-9 {
			limit := math.Inf(1)
			if d, ok := demand[s.id]; ok {
				limit = d
			}
			if float64(n+1) <= limit+1e-9 {
				n++
				remaining--
			}
		}
		if n > 0 {
			qz.out[s.id] = n
		}
	}
	return qz.out
}

// quantCase is one quantizer input slot by slot; an infinite demand is a job
// missing from the oracle's demand map.
type quantCase struct {
	ids            []int
	shares, demand []float64
	capacity       int
}

// quantFeatures records which paths of the algorithm a case exercises.
type quantFeatures struct{ tied, nonPositive, capped, trimmed, unordered bool }

func (c quantCase) features() quantFeatures {
	var f quantFeatures
	var total float64
	wholes := 0
	fracs := map[float64]bool{}
	for i, x := range c.shares {
		if x <= 0 {
			f.nonPositive = true
			continue
		}
		total += x
		if x > c.demand[i] {
			f.capped = true
			x = c.demand[i]
		}
		w := math.Floor(x + 1e-9)
		wholes += int(w)
		if fr := x - w; fr > 1e-9 {
			f.tied = f.tied || fracs[fr]
			fracs[fr] = true
		}
	}
	f.trimmed = wholes > min(int(math.Round(total)), c.capacity)
	f.unordered = !slices.IsSorted(c.ids)
	return f
}

// checkQuantize compares the dense core and the map adapter with the oracle
// on c, through qz so scratch reuse across cases is exercised too.
func checkQuantize(t *testing.T, qz *sched.Quantizer, c quantCase) {
	t.Helper()
	jobs := make([]sched.JobView, len(c.ids))
	alloc := mapAssignment{}
	demand := map[int]float64{}
	for i, id := range c.ids {
		jobs[i] = job(id, i, 1, 0, 0)
		alloc[id] = c.shares[i]
		if !math.IsInf(c.demand[i], 1) {
			demand[id] = c.demand[i]
		}
	}
	want := maps.Clone((&mapQuantizer{}).QuantizeInto(alloc, demand, c.capacity))
	got := qz.Targets(sched.AssignmentOf(jobs, c.shares), c.demand, c.capacity)
	for i, id := range c.ids {
		if got[i] != want[id] {
			t.Fatalf("%+v: slot %d (job %d) target %d, oracle %d (targets %v, oracle %v)", c, i, id, got[i], want[id], got, want)
		}
	}
	if adapted := qz.QuantizeInto(sched.AssignmentOf(jobs, c.shares), demand, c.capacity); !maps.Equal(adapted, want) {
		t.Fatalf("%+v: map adapter %v, oracle %v", c, adapted, want)
	}
}

// randomQuantCase draws slots whose shares and demands favour the edge
// cases: tied fractions, zero and negative shares, demand caps (integral,
// fractional, zero, negative, absent) and capacities below the floors.
func randomQuantCase(r *rand.Rand) quantCase {
	n := r.Intn(17)
	ids := r.Perm(3 * n)[:n]
	for i := range ids {
		ids[i] -= n // some negative IDs
	}
	if r.Intn(2) == 0 {
		slices.Sort(ids)
	}
	c := quantCase{ids: ids, shares: make([]float64, n), demand: make([]float64, n)}
	var sum float64
	for i := range ids {
		base := float64(r.Intn(12))
		switch r.Intn(6) {
		case 0:
			c.shares[i] = 0
		case 1:
			c.shares[i] = -base - 0.5
		case 2:
			c.shares[i] = base + []float64{0.25, 0.5, 0.75}[r.Intn(3)]
		case 3:
			c.shares[i] = base
		default:
			c.shares[i] = r.Float64() * 12
		}
		switch r.Intn(6) {
		case 0:
			c.demand[i] = math.Inf(1)
		case 1:
			c.demand[i] = float64(r.Intn(3)) - 1 // -1, 0 or 1
		case 2:
			c.demand[i] = float64(r.Intn(12)) + 0.3
		default:
			c.demand[i] = float64(r.Intn(14))
		}
		sum += math.Max(c.shares[i], 0)
	}
	c.capacity = r.Intn(int(sum) + 6)
	return c
}

func TestQuantizeMatchesMapOracle(t *testing.T) {
	var qz sched.Quantizer
	// The budget is summed in ID order: (0.1 + 0.6) + 3.8 is 4.5 and
	// rounds to 5, while the slot order (3.8 + 0.6) + 0.1 rounds to 4.
	inf := math.Inf(1)
	checkQuantize(t, &qz, quantCase{ids: []int{3, 2, 1}, shares: []float64{3.8, 0.6, 0.1}, demand: []float64{inf, inf, inf}, capacity: 9})

	r := rand.New(rand.NewSource(1))
	var seen quantFeatures
	for i := 0; i < 20000; i++ {
		c := randomQuantCase(r)
		checkQuantize(t, &qz, c)
		f := c.features()
		seen.tied = seen.tied || f.tied
		seen.nonPositive = seen.nonPositive || f.nonPositive
		seen.capped = seen.capped || f.capped
		seen.trimmed = seen.trimmed || f.trimmed
		seen.unordered = seen.unordered || f.unordered
	}
	if seen != (quantFeatures{true, true, true, true, true}) {
		t.Fatalf("generator missed a case: %+v", seen)
	}
}

// FuzzQuantize decodes three bytes per slot — job ID, share in quarter
// containers (negative below 32) and demand in half containers (absent at
// 255) — and checks the dense core against the map oracle.
func FuzzQuantize(f *testing.F) {
	f.Add([]byte{1, 40, 255, 2, 42, 255, 3, 42, 255}, uint8(3))
	f.Add([]byte{9, 200, 20, 4, 201, 255, 7, 10, 0, 5, 60, 13}, uint8(4))
	f.Add([]byte{3, 34, 255, 1, 34, 255, 2, 34, 255}, uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, capacity uint8) {
		var c quantCase
		taken := map[int]bool{}
		for ; len(data) >= 3; data = data[3:] {
			id := int(data[0]) - 64
			if taken[id] {
				continue
			}
			taken[id] = true
			d := math.Inf(1)
			if data[2] != 255 {
				d = float64(int(data[2])-16) / 2
			}
			c.ids = append(c.ids, id)
			c.shares = append(c.shares, float64(int(data[1])-32)/4)
			c.demand = append(c.demand, d)
		}
		c.capacity = int(capacity)
		var qz sched.Quantizer
		checkQuantize(t, &qz, c)
	})
}
