package sched_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

func job(id, seq, prio int, attained, ready float64) *schedtest.FakeJob {
	return &schedtest.FakeJob{
		JobID:        id,
		JobSeq:       seq,
		JobPriority:  prio,
		AttainedVal:  attained,
		EstimatedVal: attained,
		ReadyVal:     ready,
		RemainingVal: ready,
	}
}

func views(jobs ...*schedtest.FakeJob) []sched.JobView {
	out := make([]sched.JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j
	}
	return out
}

func TestFIFOServesInAdmissionOrder(t *testing.T) {
	s := sched.NewFIFO()
	jobs := views(
		job(1, 2, 1, 0, 50),
		job(2, 1, 1, 0, 80),
		job(3, 3, 1, 0, 50),
	)
	alloc := s.Assign(0, 100, jobs)
	if alloc.Share(2) != 80 {
		t.Errorf("earliest job got %v, want full demand 80", alloc.Share(2))
	}
	if alloc.Share(1) != 20 {
		t.Errorf("second job got %v, want leftover 20", alloc.Share(1))
	}
	if alloc.Share(3) != 0 {
		t.Errorf("third job got %v, want 0", alloc.Share(3))
	}
}

func TestFIFOSkipsZeroDemand(t *testing.T) {
	s := sched.NewFIFO()
	jobs := views(job(1, 1, 1, 0, 0), job(2, 2, 1, 0, 10))
	alloc := s.Assign(0, 100, jobs)
	if alloc.Share(1) != 0 {
		t.Error("zero-demand job received an allocation")
	}
	if alloc.Share(2) != 10 {
		t.Errorf("job 2 got %v, want 10", alloc.Share(2))
	}
}

func TestFairProportionalToPriority(t *testing.T) {
	s := sched.NewFair()
	jobs := views(
		job(1, 1, 1, 0, 1000),
		job(2, 2, 4, 0, 1000),
	)
	alloc := s.Assign(0, 100, jobs)
	if math.Abs(alloc.Share(1)-20) > 1e-9 || math.Abs(alloc.Share(2)-80) > 1e-9 {
		t.Errorf("alloc = %v, want 20/80 split by priority", alloc)
	}
}

func TestFairDemandCapRedistributes(t *testing.T) {
	s := sched.NewFair()
	jobs := views(
		job(1, 1, 1, 0, 5), // can only use 5
		job(2, 2, 1, 0, 1000),
	)
	alloc := s.Assign(0, 100, jobs)
	if alloc.Share(1) != 5 {
		t.Errorf("capped job got %v, want 5", alloc.Share(1))
	}
	if math.Abs(alloc.Share(2)-95) > 1e-9 {
		t.Errorf("other job got %v, want redistributed 95", alloc.Share(2))
	}
}

func TestFairZeroOrNegativePriorityTreatedAsOne(t *testing.T) {
	s := sched.NewFair()
	jobs := views(
		job(1, 1, 0, 0, 1000),
		job(2, 2, 1, 0, 1000),
	)
	alloc := s.Assign(0, 100, jobs)
	if math.Abs(alloc.Share(1)-50) > 1e-9 {
		t.Errorf("zero-priority job got %v, want 50", alloc.Share(1))
	}
}

func TestLASFavorsLeastAttained(t *testing.T) {
	s := sched.NewLAS()
	jobs := views(
		job(1, 1, 1, 500, 100),
		job(2, 2, 1, 10, 100),
		job(3, 3, 1, 200, 100),
	)
	alloc := s.Assign(0, 100, jobs)
	if alloc.Share(2) != 100 {
		t.Errorf("least-attained job got %v, want all 100", alloc.Share(2))
	}
	if alloc.Share(1) != 0 || alloc.Share(3) != 0 {
		t.Errorf("other jobs got %v/%v, want 0", alloc.Share(1), alloc.Share(3))
	}
}

func TestLASTieGroupSharesEvenly(t *testing.T) {
	s := sched.NewLAS()
	jobs := views(
		job(1, 1, 1, 50, 100),
		job(2, 2, 1, 50, 100),
		job(3, 3, 1, 900, 100),
	)
	alloc := s.Assign(0, 100, jobs)
	if math.Abs(alloc.Share(1)-50) > 1e-9 || math.Abs(alloc.Share(2)-50) > 1e-9 {
		t.Errorf("tied jobs got %v/%v, want even 50/50", alloc.Share(1), alloc.Share(2))
	}
	if alloc.Share(3) != 0 {
		t.Errorf("large job got %v, want 0", alloc.Share(3))
	}
}

func TestLASSpilloverToNextGroup(t *testing.T) {
	s := sched.NewLAS()
	jobs := views(
		job(1, 1, 1, 0, 30), // least attained but small demand
		job(2, 2, 1, 10, 100),
	)
	alloc := s.Assign(0, 100, jobs)
	if alloc.Share(1) != 30 {
		t.Errorf("least job got %v, want its demand 30", alloc.Share(1))
	}
	if math.Abs(alloc.Share(2)-70) > 1e-9 {
		t.Errorf("next job got %v, want spillover 70", alloc.Share(2))
	}
}

func TestLASHorizonCatchUp(t *testing.T) {
	s := sched.NewLAS()
	jobs := views(
		job(1, 1, 1, 0, 100),
		job(2, 2, 1, 50, 100),
	)
	alloc := s.Assign(0, 10, jobs)
	// Job 1 runs at rate 10 from attained 0; catches job 2 (attained 50) at t=5.
	h := s.Horizon(0, jobs, alloc)
	if math.Abs(h-5) > 1e-6 {
		t.Errorf("horizon = %v, want 5", h)
	}
}

func TestLASHorizonInfiniteWhenAllServed(t *testing.T) {
	s := sched.NewLAS()
	jobs := views(job(1, 1, 1, 0, 10))
	alloc := s.Assign(0, 100, jobs)
	if h := s.Horizon(0, jobs, alloc); !math.IsInf(h, 1) {
		t.Errorf("horizon = %v, want +Inf", h)
	}
}

func TestSJFOrdersBySizeHint(t *testing.T) {
	s := sched.NewSJF()
	small := job(1, 2, 1, 0, 100)
	small.SizeHintVal = 10
	large := job(2, 1, 1, 0, 100)
	large.SizeHintVal = 1000
	alloc := s.Assign(0, 100, views(small, large))
	if alloc.Share(1) != 100 {
		t.Errorf("small job got %v, want all capacity", alloc.Share(1))
	}
}

func TestSJFMisestimatedLargeJobBlocks(t *testing.T) {
	// The introduction's motivation: a large job whose size is
	// under-estimated is placed ahead of genuinely small jobs.
	s := sched.NewSJF()
	small := job(1, 1, 1, 0, 100)
	small.SizeHintVal = 10
	large := job(2, 2, 1, 0, 100)
	large.SizeHintVal = 5 // under-estimated; true size is huge
	alloc := s.Assign(0, 100, views(small, large))
	if alloc.Share(2) != 100 {
		t.Errorf("under-estimated large job got %v, want all capacity", alloc.Share(2))
	}
}

func TestSRTFOrdersByRemaining(t *testing.T) {
	s := sched.NewSRTF()
	a := job(1, 1, 1, 0, 100)
	a.RemSizeVal = 500
	b := job(2, 2, 1, 0, 100)
	b.RemSizeVal = 5
	alloc := s.Assign(0, 100, views(a, b))
	if alloc.Share(2) != 100 {
		t.Errorf("shortest-remaining job got %v, want all capacity", alloc.Share(2))
	}
}

// quantize runs the dense quantizer over (id, share, demand) triples given
// slot by slot and returns the targets by job ID.
func quantize(ids []int, shares, demand []float64, capacity int) map[int]int {
	jobs := make([]sched.JobView, len(ids))
	for i, id := range ids {
		jobs[i] = job(id, id, 1, 0, 0)
	}
	var qz sched.Quantizer
	out := map[int]int{}
	for i, n := range qz.Targets(sched.AssignmentOf(jobs, shares), demand, capacity) {
		if n != 0 {
			out[ids[i]] = n
		}
	}
	return out
}

func TestQuantizeBasic(t *testing.T) {
	q := quantize([]int{1, 2, 3}, []float64{33.4, 33.3, 33.3}, []float64{100, 100, 100}, 100)
	total := q[1] + q[2] + q[3]
	if total != 100 {
		t.Errorf("quantized total = %d, want 100 (%v)", total, q)
	}
	if q[1] < 33 || q[1] > 34 {
		t.Errorf("job 1 got %d, want 33 or 34", q[1])
	}
}

func TestQuantizeRespectsDemand(t *testing.T) {
	q := quantize([]int{1}, []float64{10.6}, []float64{10}, 100)
	if q[1] != 10 {
		t.Errorf("job 1 got %d, want demand cap 10", q[1])
	}
}

func TestQuantizeDropsZero(t *testing.T) {
	q := quantize([]int{1, 2}, []float64{0, 5}, []float64{10, 10}, 100)
	if _, ok := q[1]; ok {
		t.Error("zero share produced a target")
	}
	if q[2] != 5 {
		t.Errorf("job 2 got %d, want 5", q[2])
	}
}

// Invariant checks shared by all policies.
func checkInvariants(t *testing.T, name string, capacity float64, jobs []sched.JobView, alloc sched.Assignment) {
	t.Helper()
	const eps = 1e-6
	if total := alloc.Total(); total > capacity+eps {
		t.Errorf("%s: total allocation %v exceeds capacity %v", name, total, capacity)
	}
	demand := make(map[int]float64, len(jobs))
	for _, j := range jobs {
		demand[j.ID()] = j.ReadyDemand()
	}
	var totalDemand float64
	for _, d := range demand {
		totalDemand += d
	}
	for i, x := range alloc.Shares() {
		id := alloc.Views()[i].ID()
		if x < -eps {
			t.Errorf("%s: negative allocation %v for job %d", name, x, id)
		}
		if x > demand[id]+eps {
			t.Errorf("%s: job %d allocated %v beyond demand %v", name, id, x, demand[id])
		}
	}
	// Work conservation: if demand >= capacity, all capacity is used.
	if totalDemand >= capacity-eps {
		if total := alloc.Total(); total < capacity-eps {
			t.Errorf("%s: not work conserving: used %v of %v with demand %v",
				name, total, capacity, totalDemand)
		}
	} else if total := alloc.Total(); math.Abs(total-totalDemand) > eps {
		t.Errorf("%s: demand-limited case used %v, want all demand %v", name, total, totalDemand)
	}
}

func TestPolicyInvariantsProperty(t *testing.T) {
	policies := []sched.Scheduler{
		sched.NewFIFO(), sched.NewFair(), sched.NewLAS(), sched.NewSJF(), sched.NewSRTF(),
	}
	f := func(seed int64, n uint8, capRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%20) + 1
		capacity := float64(capRaw%200) + 1
		jobs := make([]sched.JobView, 0, count)
		for i := 0; i < count; i++ {
			fj := job(i+1, i+1, r.Intn(5)+1, r.Float64()*1000, float64(r.Intn(150)))
			fj.SizeHintVal = r.Float64() * 1000
			fj.RemSizeVal = r.Float64() * 500
			jobs = append(jobs, fj)
		}
		for _, p := range policies {
			alloc := p.Assign(0, capacity, jobs)
			// Inline invariant checks returning bool for quick.
			const eps = 1e-6
			if alloc.Total() > capacity+eps {
				return false
			}
			var totalDemand float64
			for _, j := range jobs {
				totalDemand += j.ReadyDemand()
			}
			for i, j := range jobs {
				if x := alloc.Shares()[i]; x < -eps || x > j.ReadyDemand()+eps {
					return false
				}
			}
			want := math.Min(capacity, totalDemand)
			if math.Abs(alloc.Total()-want) > eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPolicyInvariantsExamples(t *testing.T) {
	policies := []sched.Scheduler{
		sched.NewFIFO(), sched.NewFair(), sched.NewLAS(), sched.NewSJF(), sched.NewSRTF(),
	}
	jobs := views(
		job(1, 1, 3, 120, 40),
		job(2, 2, 1, 0, 90),
		job(3, 3, 5, 700, 10),
	)
	for _, p := range policies {
		alloc := p.Assign(0, 100, jobs)
		checkInvariants(t, p.Name(), 100, jobs, alloc)
	}
}

func TestPoliciesDeterministic(t *testing.T) {
	policies := []sched.Scheduler{
		sched.NewFIFO(), sched.NewFair(), sched.NewLAS(), sched.NewSJF(), sched.NewSRTF(),
	}
	jobs := views(
		job(1, 1, 3, 120, 40),
		job(2, 2, 1, 120, 90),
		job(3, 3, 5, 700, 10),
	)
	for _, p := range policies {
		a := p.Assign(0, 64, jobs)
		b := p.Assign(0, 64, jobs)
		if !slices.Equal(a.Shares(), b.Shares()) {
			t.Errorf("%s: allocation differs: %v vs %v", p.Name(), a.Shares(), b.Shares())
		}
	}
}

func TestQuantizeBudgetCappedByCapacity(t *testing.T) {
	// Fractional shares summing past capacity are clamped.
	q := quantize([]int{1, 2}, []float64{60.7, 60.7}, []float64{100, 100}, 100)
	if total := q[1] + q[2]; total > 100 {
		t.Errorf("quantized total %d exceeds capacity", total)
	}
}

func TestQuantizeEmpty(t *testing.T) {
	if q := quantize(nil, nil, nil, 10); len(q) != 0 {
		t.Errorf("empty allocation produced %v", q)
	}
}
