package core_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lasmq/internal/core"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

func newLASMQ(t *testing.T, mutate func(*core.Config)) *core.LASMQ {
	t.Helper()
	cfg := core.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func job(id, seq int, attained, ready float64) *schedtest.FakeJob {
	return &schedtest.FakeJob{
		JobID:        id,
		JobSeq:       seq,
		JobPriority:  1,
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

func TestNewValidation(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.QueueWeightDecay = 0.5
	if _, err := core.New(cfg); err == nil {
		t.Error("expected error for decay < 1")
	}
	cfg = core.DefaultConfig()
	cfg.Queues = 0
	if _, err := core.New(cfg); err == nil {
		t.Error("expected error for zero queues")
	}
}

func TestNewJobsEnterTopQueue(t *testing.T) {
	s := newLASMQ(t, nil)
	s.Assign(0, 100, views(job(1, 1, 0, 10)))
	if q, ok := s.QueueOf(1); !ok || q != 0 {
		t.Errorf("QueueOf(1) = %d,%v, want 0,true", q, ok)
	}
}

func TestDemotionAcrossThresholds(t *testing.T) {
	s := newLASMQ(t, func(c *core.Config) { c.FirstThreshold = 100; c.Step = 10 })
	j := job(1, 1, 0, 10)
	s.Assign(0, 100, views(j))
	// Exceed the first threshold: moves to queue 1.
	j.AttainedVal, j.EstimatedVal = 150, 150
	s.Assign(1, 100, views(j))
	if q, _ := s.QueueOf(1); q != 1 {
		t.Errorf("queue after 150 service = %d, want 1", q)
	}
	// Jump far: skips directly to the queue whose threshold covers it.
	j.AttainedVal, j.EstimatedVal = 5e4, 5e4
	s.Assign(2, 100, views(j))
	if q, _ := s.QueueOf(1); q != 3 {
		t.Errorf("queue after 5e4 service = %d, want 3", q)
	}
}

func TestStageAwareDemotesEarly(t *testing.T) {
	aware := newLASMQ(t, nil)
	blind := newLASMQ(t, func(c *core.Config) { c.StageAware = false })
	// A job that has only attained 50 but whose stage projection says 5000.
	j := job(1, 1, 50, 10)
	j.EstimatedVal = 5000
	aware.Assign(0, 100, views(j))
	blind.Assign(0, 100, views(j))
	if q, _ := aware.QueueOf(1); q != 2 {
		t.Errorf("stage-aware queue = %d, want 2 (projected 5000 > 1000)", q)
	}
	if q, _ := blind.QueueOf(1); q != 0 {
		t.Errorf("attained-only queue = %d, want 0 (attained 50 <= 100)", q)
	}
}

func TestDemoteOnlyOnShrinkingEstimate(t *testing.T) {
	s := newLASMQ(t, nil)
	j := job(1, 1, 50, 10)
	j.EstimatedVal = 5000
	s.Assign(0, 100, views(j))
	// The over-estimate is corrected downward; the job must stay demoted.
	j.EstimatedVal = 60
	s.Assign(1, 100, views(j))
	if q, _ := s.QueueOf(1); q != 2 {
		t.Errorf("queue after estimate shrank = %d, want 2 (demote-only)", q)
	}
}

func TestCompletedJobsArePurged(t *testing.T) {
	s := newLASMQ(t, nil)
	s.Assign(0, 100, views(job(1, 1, 0, 10), job(2, 2, 0, 10)))
	s.Assign(1, 100, views(job(2, 2, 5, 10)))
	if _, ok := s.QueueOf(1); ok {
		t.Error("completed job still tracked")
	}
	if _, ok := s.QueueOf(2); !ok {
		t.Error("live job lost")
	}
}

func TestHigherQueueGetsLargerShare(t *testing.T) {
	s := newLASMQ(t, func(c *core.Config) { c.FirstThreshold = 100; c.QueueWeightDecay = 2 })
	small := job(1, 1, 10, 1000)   // queue 0
	large := job(2, 2, 5000, 1000) // queue 2 (threshold 100, 1000, ...)
	alloc := s.Assign(0, 90, views(small, large))
	if alloc.Share(1) <= alloc.Share(2) {
		t.Errorf("top-queue job got %v, lower-queue job %v; want strictly more for the top queue", alloc.Share(1), alloc.Share(2))
	}
	// weight 1 vs 0.25 over queues 0 and 2: shares 72 and 18.
	if math.Abs(alloc.Share(1)-72) > 1e-9 || math.Abs(alloc.Share(2)-18) > 1e-9 {
		t.Errorf("alloc = %v, want 72/18 weighted split", alloc)
	}
}

func TestLowerQueueNotStarved(t *testing.T) {
	// Weighted sharing (not strict priority): a demoted job keeps progressing
	// even while the top queue has unmet demand.
	s := newLASMQ(t, nil)
	top := job(1, 1, 0, 10000)
	bottom := job(2, 2, 1e9, 10000)
	alloc := s.Assign(0, 100, views(top, bottom))
	if alloc.Share(2) <= 0 {
		t.Errorf("demoted job starved: alloc = %v", alloc)
	}
}

func TestWorkConservationSpillover(t *testing.T) {
	// Queue 0's budget exceeds its demand; the excess must reach the lower
	// queue instead of idling.
	s := newLASMQ(t, nil)
	top := job(1, 1, 0, 5)
	bottom := job(2, 2, 1e9, 1000)
	alloc := s.Assign(0, 100, views(top, bottom))
	if alloc.Share(1) != 5 {
		t.Errorf("top job got %v, want its demand 5", alloc.Share(1))
	}
	if math.Abs(alloc.Share(2)-95) > 1e-9 {
		t.Errorf("bottom job got %v, want spilled-over 95", alloc.Share(2))
	}
}

func TestInQueueOrderingByDemand(t *testing.T) {
	s := newLASMQ(t, nil)
	// Same queue; the job with fewer remaining containers goes first.
	wide := job(1, 1, 0, 80)
	narrow := job(2, 2, 0, 20)
	alloc := s.Assign(0, 50, views(wide, narrow))
	if alloc.Share(2) != 20 {
		t.Errorf("narrow job got %v, want full demand 20", alloc.Share(2))
	}
	if math.Abs(alloc.Share(1)-30) > 1e-9 {
		t.Errorf("wide job got %v, want leftover 30", alloc.Share(1))
	}
}

func TestInQueueFIFOWhenOrderingDisabled(t *testing.T) {
	s := newLASMQ(t, func(c *core.Config) { c.OrderByDemand = false })
	wide := job(1, 1, 0, 80)
	narrow := job(2, 2, 0, 20)
	alloc := s.Assign(0, 50, views(wide, narrow))
	if alloc.Share(1) != 50 {
		t.Errorf("earlier job got %v, want all 50 under FIFO", alloc.Share(1))
	}
	if alloc.Share(2) != 0 {
		t.Errorf("later job got %v, want 0", alloc.Share(2))
	}
}

func TestHorizonPredictsDemotion(t *testing.T) {
	s := newLASMQ(t, func(c *core.Config) { c.FirstThreshold = 100; c.StageAware = false })
	j := job(1, 1, 40, 10)
	alloc := s.Assign(0, 10, views(j))
	if alloc.Share(1) != 10 {
		t.Fatalf("alloc = %v, want 10", alloc)
	}
	// Attained 40 grows at rate 10; crosses threshold 100 at t = 6.
	h := s.Horizon(0, views(j), alloc)
	if math.Abs(h-6) > 1e-9 {
		t.Errorf("horizon = %v, want 6", h)
	}
}

func TestHorizonInfiniteInLastQueue(t *testing.T) {
	s := newLASMQ(t, func(c *core.Config) { c.Queues = 2; c.StageAware = false })
	j := job(1, 1, 1e6, 10)
	alloc := s.Assign(0, 10, views(j))
	if h := s.Horizon(0, views(j), alloc); !math.IsInf(h, 1) {
		t.Errorf("horizon = %v, want +Inf for last queue", h)
	}
}

func TestHorizonStrictlyAfterNow(t *testing.T) {
	s := newLASMQ(t, func(c *core.Config) { c.FirstThreshold = 100; c.StageAware = false })
	j := job(1, 1, 100, 10) // exactly on the threshold
	alloc := s.Assign(0, 10, views(j))
	h := s.Horizon(0, views(j), alloc)
	if h <= 0 {
		t.Errorf("horizon = %v, want strictly after now", h)
	}
}

func TestAssignInvariantsProperty(t *testing.T) {
	f := func(seed int64, n uint8, capRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		s, err := core.New(core.DefaultConfig())
		if err != nil {
			return false
		}
		count := int(n%25) + 1
		capacity := float64(capRaw%200) + 1
		jobs := make([]sched.JobView, 0, count)
		var totalDemand float64
		for i := 0; i < count; i++ {
			fj := job(i+1, i+1, r.Float64()*1e5, float64(r.Intn(150)))
			fj.EstimatedVal = fj.AttainedVal * (1 + r.Float64())
			jobs = append(jobs, fj)
			totalDemand += fj.ReadyVal
		}
		alloc := s.Assign(0, capacity, jobs)
		const eps = 1e-6
		if alloc.Total() > capacity+eps {
			return false
		}
		for _, j := range jobs {
			if alloc.Share(j.ID()) < -eps || alloc.Share(j.ID()) > j.ReadyDemand()+eps {
				return false
			}
		}
		// Work conservation.
		want := math.Min(capacity, totalDemand)
		return math.Abs(alloc.Total()-want) <= eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQueueMembershipMonotoneProperty(t *testing.T) {
	// Across repeated rounds with growing attained service, a job's queue
	// index never decreases.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, err := core.New(core.DefaultConfig())
		if err != nil {
			return false
		}
		j := job(1, 1, 0, 50)
		prevQ := 0
		for round := 0; round < 50; round++ {
			j.AttainedVal += r.Float64() * 500
			j.EstimatedVal = j.AttainedVal * (1 + r.Float64()*2)
			s.Assign(float64(round), 100, views(j))
			q, ok := s.QueueOf(1)
			if !ok || q < prevQ {
				return false
			}
			prevQ = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQueueSizes(t *testing.T) {
	s := newLASMQ(t, nil)
	jobs := views(
		job(1, 1, 0, 10),      // queue 0
		job(2, 2, 50, 10),     // queue 0 (50 <= 100)
		job(3, 3, 500, 10),    // queue 1
		job(4, 4, 500000, 10), // queue 4
	)
	s.Assign(0, 100, jobs)
	sizes := s.QueueSizes()
	if len(sizes) != 10 {
		t.Fatalf("QueueSizes returned %d queues, want 10", len(sizes))
	}
	want := map[int]int{0: 2, 1: 1, 4: 1}
	for q, n := range sizes {
		if n != want[q] {
			t.Errorf("queue %d has %d jobs, want %d", q, n, want[q])
		}
	}
}

func TestMimicsSJFWithoutSizeInfo(t *testing.T) {
	// Behavioural check of the headline claim: once a long-running job has
	// been demoted, a newly arriving small job receives the larger share
	// even though the scheduler was never told either size.
	s := newLASMQ(t, nil)
	long := job(1, 1, 0, 1000)
	// Run several rounds growing the long job's attained service.
	for i := 0; i < 5; i++ {
		long.AttainedVal += 400
		long.EstimatedVal = long.AttainedVal
		s.Assign(float64(i), 100, views(long))
	}
	small := job(2, 2, 0, 1000)
	alloc := s.Assign(10, 100, views(long, small))
	if alloc.Share(2) <= alloc.Share(1) {
		t.Errorf("new small job got %v vs long job %v; want more for the small job", alloc.Share(2), alloc.Share(1))
	}
}
