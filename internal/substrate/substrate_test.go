package substrate_test

import (
	"math"
	"testing"

	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// fakeView is a minimal sched.JobView for kernel tests.
type fakeView struct{ id, seq int }

func (v fakeView) ID() int                    { return v.id }
func (v fakeView) Seq() int                   { return v.seq }
func (v fakeView) Priority() int              { return 1 }
func (v fakeView) Attained() float64          { return 0 }
func (v fakeView) Estimated() float64         { return 0 }
func (v fakeView) ReadyDemand() float64       { return 1 }
func (v fakeView) RemainingDemand() float64   { return 1 }
func (v fakeView) SizeHint() float64          { return 1 }
func (v fakeView) RemainingSizeHint() float64 { return 1 }

// fakePolicy counts plain Assign invocations.
type fakePolicy struct{ assigns int }

func (p *fakePolicy) Name() string { return "fake" }
func (p *fakePolicy) Assign(now, capacity float64, jobs []sched.JobView) sched.Assignment {
	p.assigns++
	out := sched.NewAssignment(jobs)
	for i := range jobs {
		out.Shares()[i] = 1
	}
	return out
}

// fakeBuffered adds the allocation-free assignment capability.
type fakeBuffered struct {
	fakePolicy
	intoCalls int
}

func (p *fakeBuffered) AssignInto(now, capacity float64, jobs []sched.JobView, out sched.Assignment) {
	p.intoCalls++
	sh := out.Reset(jobs)
	for i := range sh {
		sh[i] = 2
	}
}

// fakeObserver is a stateful policy without horizon hints.
type fakeObserver struct {
	fakePolicy
	observes int
	lastNow  float64
}

func (p *fakeObserver) Observe(now float64, jobs []sched.JobView) {
	p.observes++
	p.lastNow = now
}

// fakeHintObserver can bound its next state change.
type fakeHintObserver struct {
	fakeObserver
	horizon      float64
	horizonCalls int
}

func (p *fakeHintObserver) ObserveHorizon(now float64, jobs []sched.JobView, rates sched.Assignment) float64 {
	p.horizonCalls++
	return p.horizon
}

func admitAll(q *substrate.Queue[int]) (jobs, seqs []int) {
	q.Admit(func(j, seq int) {
		jobs = append(jobs, j)
		seqs = append(seqs, seq)
	})
	return jobs, seqs
}

func TestQueueUnlimited(t *testing.T) {
	q := substrate.NewQueue[int](0)
	for i := 10; i < 15; i++ {
		q.Push(i)
	}
	jobs, seqs := admitAll(q)
	if len(jobs) != 5 || q.Running() != 5 || q.Waiting() != 0 {
		t.Fatalf("unlimited admit released %d jobs, running=%d waiting=%d", len(jobs), q.Running(), q.Waiting())
	}
	for i := range jobs {
		if jobs[i] != 10+i || seqs[i] != i {
			t.Fatalf("release %d = (job %d, seq %d), want FIFO (job %d, seq %d)", i, jobs[i], seqs[i], 10+i, i)
		}
	}
}

func TestQueueLimitOne(t *testing.T) {
	q := substrate.NewQueue[int](1)
	q.Push(1)
	q.Push(2)
	jobs, _ := admitAll(q)
	if len(jobs) != 1 || jobs[0] != 1 || q.Waiting() != 1 {
		t.Fatalf("limit-1 admit released %v, waiting=%d", jobs, q.Waiting())
	}
	q.Done()
	jobs, seqs := admitAll(q)
	if len(jobs) != 1 || jobs[0] != 2 || seqs[0] != 1 {
		t.Fatalf("post-Done admit released %v seqs %v, want job 2 with seq 1", jobs, seqs)
	}
}

func TestQueueLimitAboveCount(t *testing.T) {
	q := substrate.NewQueue[int](100)
	q.Push(1)
	q.Push(2)
	if jobs, _ := admitAll(q); len(jobs) != 2 {
		t.Fatalf("limit above count should behave as unlimited, released %v", jobs)
	}
}

func TestQueueStuck(t *testing.T) {
	q := substrate.NewQueue[int](1)
	q.Push(1)
	q.Push(2)
	q.Push(3)
	admitAll(q)
	err := q.Stuck("fluid")
	want := "fluid: 2 jobs stuck in admission with empty cluster"
	if err == nil || err.Error() != want {
		t.Fatalf("Stuck = %v, want %q", err, want)
	}
}

func TestDriverBufferedDispatch(t *testing.T) {
	p := &fakeBuffered{}
	d := substrate.NewDriver(p)
	views := []sched.JobView{fakeView{id: 7}}
	a1 := d.Assign(0, 4, views)
	a2 := d.Assign(1, 4, views)
	if p.intoCalls != 2 || p.assigns != 0 {
		t.Fatalf("buffered dispatch: AssignInto called %d times, Assign %d; want 2, 0", p.intoCalls, p.assigns)
	}
	if a1.Share(7) != 2 || a2.Share(7) != 2 {
		t.Fatalf("buffered shares = %v / %v, want 2", a1.Share(7), a2.Share(7))
	}
}

func TestDriverPlainDispatch(t *testing.T) {
	p := &fakePolicy{}
	d := substrate.NewDriver(p)
	a := d.Assign(0, 4, []sched.JobView{fakeView{id: 3}})
	if p.assigns != 1 || a.Share(3) != 1 {
		t.Fatalf("plain dispatch: assigns=%d alloc=%v", p.assigns, a)
	}
	if d.Observes() || d.NeedsRates() || d.ObservationDue(0) {
		t.Fatal("stateless policy should need no observation")
	}
	if h := d.Horizon(0, nil, sched.Assignment{}); !math.IsInf(h, 1) {
		t.Fatalf("hintless Horizon = %v, want +Inf", h)
	}
}

func TestDriverObservationGating(t *testing.T) {
	p := &fakeHintObserver{horizon: 50}
	d := substrate.NewDriver(p)
	if !d.Observes() || !d.NeedsRates() {
		t.Fatal("capabilities not resolved")
	}
	if !d.ObservationDue(0) {
		t.Fatal("fresh driver must be dirty: first skipped round observes")
	}

	var vs substrate.ViewSet
	vs.Begin(false, true)
	vs.SetRate(vs.Add(fakeView{id: 1}), 2.5)
	d.Observe(10, &vs)
	if p.observes != 1 || p.lastNow != 10 || p.horizonCalls != 1 {
		t.Fatalf("observe with rates: observes=%d lastNow=%v horizonCalls=%d", p.observes, p.lastNow, p.horizonCalls)
	}
	if d.ObservationDue(20) {
		t.Fatal("before the horizon with clean metrics, observation must be elided")
	}
	if !d.ObservationDue(50) {
		t.Fatal("at the horizon, observation is due again")
	}
	d.MarkDirty()
	if !d.ObservationDue(20) {
		t.Fatal("MarkDirty must force the next observation")
	}

	// An empty view set is a no-op and must not clear the dirty flag.
	vs.Begin(false, true)
	d.Observe(30, &vs)
	if p.observes != 1 {
		t.Fatalf("empty observe must not reach the policy, observes=%d", p.observes)
	}
	if !d.ObservationDue(20) {
		t.Fatal("empty observe must leave the driver dirty")
	}
}

func TestDriverObserveWithoutRates(t *testing.T) {
	p := &fakeHintObserver{horizon: 1e9}
	d := substrate.NewDriver(p)
	var vs substrate.ViewSet
	vs.Begin(false, false)
	vs.Add(fakeView{id: 1})
	d.Observe(5, &vs)
	if p.observes != 1 || p.horizonCalls != 0 {
		t.Fatalf("rate-less observe: observes=%d horizonCalls=%d, want 1, 0", p.observes, p.horizonCalls)
	}
	// A substrate that supplies no rate bounds (mini-YARN) gets no horizon
	// fast path: every skipped round observes.
	if !d.ObservationDue(6) {
		t.Fatal("without rate bounds the driver must stay dirty")
	}
}

func TestDriverPlainObserver(t *testing.T) {
	p := &fakeObserver{}
	d := substrate.NewDriver(p)
	if d.NeedsRates() {
		t.Fatal("plain observer must not request rates")
	}
	for _, now := range []float64{1, 2, 3} {
		if !d.ObservationDue(now) {
			t.Fatalf("plain observer must observe every skipped round (t=%v)", now)
		}
		var vs substrate.ViewSet
		vs.Begin(false, false)
		vs.Add(fakeView{id: 1})
		d.Observe(now, &vs)
	}
	if p.observes != 3 {
		t.Fatalf("observes = %d, want 3", p.observes)
	}
}

func TestViewSetReuse(t *testing.T) {
	var vs substrate.ViewSet
	vs.Begin(true, true)
	vs.Add(fakeView{id: 9})
	slot := vs.Add(fakeView{id: 1})
	vs.SetDemand(slot, 4)
	vs.SetRate(slot, 0.5)
	if slot != 1 || vs.Len() != 2 || vs.Demand()[1] != 4 || vs.Rates().Share(1) != 0.5 || vs.Rates().Share(9) != 0 || !vs.HasRates() {
		t.Fatalf("round 1 state wrong: len=%d demand=%v rates=%v", vs.Len(), vs.Demand(), vs.Rates())
	}
	vs.Begin(true, false)
	if vs.Len() != 0 || len(vs.Demand()) != 0 || vs.HasRates() {
		t.Fatalf("Begin must clear the side tables: len=%d demand=%v hasRates=%v", vs.Len(), vs.Demand(), vs.HasRates())
	}
}

func TestResultAccumulator(t *testing.T) {
	var r substrate.Result
	if r.MeanResponseTime() != 0 || r.Count() != 0 {
		t.Fatal("empty accumulator must report zero")
	}
	r.Record(1, 10)
	r.Record(2, 30)
	r.Record(1, 20)
	r.RecordSlowdown(2)
	r.RecordSlowdown(6)
	if got := r.MeanResponseTime(); got != 20 {
		t.Fatalf("mean = %v, want 20", got)
	}
	if rt := r.ResponseTimes(); len(rt) != 3 || rt[0] != 10 || rt[2] != 20 {
		t.Fatalf("ResponseTimes = %v", rt)
	}
	if sd := r.Slowdowns(); len(sd) != 2 || sd[0] != 2 || sd[1] != 6 {
		t.Fatalf("Slowdowns = %v", sd)
	}
	bm := r.BinMeans()
	if bm[1] != 15 || bm[2] != 30 {
		t.Fatalf("BinMeans = %v", bm)
	}
	// Returned slices are copies: mutating them must not corrupt the record.
	r.ResponseTimes()[0] = -1
	if got := r.MeanResponseTime(); got != 20 {
		t.Fatalf("mean after external mutation = %v, want 20", got)
	}
}
