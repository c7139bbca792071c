package core_test

import (
	"math"
	"math/rand"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/dist"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

// slotPolicies is every policy and wrapper, each as a factory so stateful
// ones can be replayed on fresh instances.
func slotPolicies(t *testing.T) map[string]func() sched.Scheduler {
	t.Helper()
	must := func(s sched.Scheduler, err error) sched.Scheduler {
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	lasmq := func() *core.LASMQ {
		cfg := core.DefaultConfig()
		cfg.FirstThreshold = 20
		cfg.Step = 4
		s, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]func() sched.Scheduler{
		"FIFO":    func() sched.Scheduler { return sched.NewFIFO() },
		"FAIR":    func() sched.Scheduler { return sched.NewFair() },
		"LAS":     func() sched.Scheduler { return sched.NewLAS() },
		"SJF":     func() sched.Scheduler { return sched.NewSJF() },
		"SRTF":    func() sched.Scheduler { return sched.NewSRTF() },
		"PS":      func() sched.Scheduler { return sched.NewPS() },
		"SRPT":    func() sched.Scheduler { return sched.NewSRPT() },
		"GITTINS": func() sched.Scheduler { return sched.NewGittins(dist.ExpService{M: 50}) },
		"LAS_MQ":  func() sched.Scheduler { return lasmq() },
		"BLEND": func() sched.Scheduler {
			return must(sched.NewBlend(lasmq(), sched.NewFair(), 0.3))
		},
		"BLEND_LAS_FIFO": func() sched.Scheduler {
			return must(sched.NewBlend(sched.NewLAS(), sched.NewFIFO(), 0.6))
		},
		"ADAPTIVE": func() sched.Scheduler {
			cfg := core.DefaultAdaptiveConfig()
			cfg.InitialThreshold, cfg.InitialStep = 20, 4
			cfg.WarmupJobs, cfg.RefitEvery = 2, 3
			s, err := core.NewAdaptive(cfg)
			return must(s, err)
		},
		"RECORDER": func() sched.Scheduler { return core.NewQueueRecorder(lasmq(), 0) },
	}
}

// slotRounds is a job-set trajectory: jobs arrive, gain service and leave,
// with unique non-contiguous IDs, zero-demand jobs and tied keys.
func slotRounds(r *rand.Rand) [][]*schedtest.FakeJob {
	var live []*schedtest.FakeJob
	var rounds [][]*schedtest.FakeJob
	nextID, nextSeq := 1+r.Intn(5), 0
	for round := 0; round < 8; round++ {
		for n := r.Intn(4); n > 0; n-- {
			ready := float64(r.Intn(12))
			attained := float64(r.Intn(3) * 10) // ties across jobs
			live = append(live, &schedtest.FakeJob{
				JobID: nextID, JobSeq: nextSeq, JobPriority: 1 + r.Intn(5),
				AttainedVal: attained, EstimatedVal: attained + float64(r.Intn(20)),
				ReadyVal: ready, RemainingVal: ready + float64(r.Intn(3)),
				SizeHintVal: float64(1 + r.Intn(100)), RemSizeVal: float64(1 + r.Intn(100)),
			})
			nextID += 1 + r.Intn(7)
			nextSeq++
		}
		kept := live[:0]
		for _, j := range live {
			if r.Intn(6) == 0 {
				continue // completed
			}
			j.AttainedVal += float64(r.Intn(15))
			j.EstimatedVal = j.AttainedVal + float64(r.Intn(20))
			j.ReadyVal = float64(r.Intn(12))
			j.RemainingVal = j.ReadyVal + float64(r.Intn(3))
			kept = append(kept, j)
		}
		live = kept
		rounds = append(rounds, append([]*schedtest.FakeJob(nil), live...))
	}
	return rounds
}

func asViews(jobs []*schedtest.FakeJob) []sched.JobView {
	out := make([]sched.JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j
	}
	return out
}

// TestSharesFollowJobsNotSlots replays one job trajectory through three
// instances of every policy: A in admission order through Assign, B on a
// shuffled view slice through Assign, and C in admission order through
// AssignInto on a reused, dirty buffer. A job's share must follow the job
// across the shuffle, C must equal A exactly, shares must respect capacity,
// demand and sign, and horizons must not depend on the slot order.
func TestSharesFollowJobsNotSlots(t *testing.T) {
	const eps = 1e-9
	for name, mk := range slotPolicies(t) {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			a, b, c := mk(), mk(), mk()
			var buf sched.Assignment
			for round, jobs := range slotRounds(r) {
				if len(jobs) == 0 {
					continue
				}
				now := float64(round)
				capacity := float64(1 + r.Intn(30))
				ordered := asViews(jobs)
				shuffled := asViews(jobs)
				r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

				got := a.Assign(now, capacity, ordered)
				moved := b.Assign(now, capacity, shuffled)
				buf.Bind(ordered)
				for i := range buf.Shares() {
					buf.Shares()[i] = -7 // AssignInto must overwrite every slot
				}
				c.(sched.BufferedAssigner).AssignInto(now, capacity, ordered, buf)

				var total float64
				for i, v := range ordered {
					x := got.Shares()[i]
					total += x
					if x < 0 || x > v.ReadyDemand()+eps {
						t.Fatalf("%s seed %d round %d: job %d share %v outside [0, demand %v]", name, seed, round, v.ID(), x, v.ReadyDemand())
					}
					if y := moved.Share(v.ID()); math.Abs(x-y) > eps*math.Max(1, x) {
						t.Fatalf("%s seed %d round %d: job %d gets %v in order, %v shuffled", name, seed, round, v.ID(), x, y)
					}
					if y := buf.Shares()[i]; y != x {
						t.Fatalf("%s seed %d round %d: job %d AssignInto %v != Assign %v", name, seed, round, v.ID(), y, x)
					}
				}
				if total > capacity+eps {
					t.Fatalf("%s seed %d round %d: shares sum to %v > capacity %v", name, seed, round, total, capacity)
				}
				if h, ok := a.(sched.Hinter); ok {
					ha, hb := h.Horizon(now, ordered, got), b.(sched.Hinter).Horizon(now, shuffled, moved)
					if math.Abs(ha-hb) > eps*math.Max(1, math.Abs(ha)) && !(math.IsInf(ha, 1) && math.IsInf(hb, 1)) {
						t.Fatalf("%s seed %d round %d: horizon %v in order, %v shuffled", name, seed, round, ha, hb)
					}
				}
				if h, ok := a.(sched.ObserveHinter); ok {
					rate := func(v sched.JobView) float64 { return float64(v.ID()%4) * 0.5 }
					ra, rb := sched.NewAssignment(ordered), sched.NewAssignment(shuffled)
					for i := range ordered {
						ra.Shares()[i], rb.Shares()[i] = rate(ordered[i]), rate(shuffled[i])
					}
					ha, hb := h.ObserveHorizon(now, ordered, ra), b.(sched.ObserveHinter).ObserveHorizon(now, shuffled, rb)
					if ha != hb && !(math.IsInf(ha, 1) && math.IsInf(hb, 1)) {
						t.Fatalf("%s seed %d round %d: observe horizon %v in order, %v shuffled", name, seed, round, ha, hb)
					}
				}
			}
		}
	}
}
