// Package fluid is the event-driven fluid simulator used for the paper's
// trace-driven evaluation (24,443-job Facebook-like trace, 10,000-job uniform
// workload). Jobs are malleable service demands with a parallelism cap
// (width); the scheduler assigns fractional container shares, and between
// scheduling points every job's attained service grows linearly, so job
// completions and policy change points (LAS catch-ups, LAS_MQ threshold
// crossings, via sched.Hinter) are computed exactly instead of stepping a
// fine-grained quantum.
//
// Unlike the task-level engine, fluid jobs have no stage structure, so the
// stage-aware estimate equals the exactly attained service — matching the
// paper's simulations, which exercise the basic multilevel-queue mechanism.
package fluid

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// JobSpec describes one trace job — an alias of the substrate streaming
// kernel's canonical spec type (see substrate.JobSpec for the field docs).
type JobSpec = substrate.JobSpec

// Config parameterizes a fluid run.
type Config struct {
	// Capacity is the cluster capacity in containers.
	Capacity float64
	// TaskDuration is the nominal per-task duration used to derive the
	// container demand of a job's remaining work: demand =
	// min(width, ceil(remaining/TaskDuration)). Default 1.
	TaskDuration float64
	// MaxStep caps event-free time advancement; 0 means unlimited (safe
	// because policies publish change points via sched.Hinter).
	MaxStep float64
	// MaxRunningJobs bounds concurrently running jobs, mirroring the paper's
	// admission module; 0 means unlimited (the trace simulations' setting).
	MaxRunningJobs int
	// Probe, when non-nil, receives telemetry events (see internal/obs).
	// Attached probes never perturb results; a nil probe costs nothing.
	Probe obs.Probe
}

// DefaultConfig returns the heavy-tailed trace configuration: 100 containers,
// unit task duration, no admission limit.
func DefaultConfig() Config {
	return Config{Capacity: 100, TaskDuration: 1}
}

func (c *Config) validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("fluid: capacity must be positive, got %v", c.Capacity)
	}
	if c.TaskDuration < 0 {
		return fmt.Errorf("fluid: task duration must be >= 0, got %v", c.TaskDuration)
	}
	if c.MaxStep < 0 {
		return fmt.Errorf("fluid: max step must be >= 0, got %v", c.MaxStep)
	}
	if c.MaxRunningJobs < 0 {
		return fmt.Errorf("fluid: max running jobs must be >= 0, got %v", c.MaxRunningJobs)
	}
	return nil
}

// JobResult reports one finished job.
type JobResult struct {
	ID           int
	Arrival      float64
	Completed    float64
	ResponseTime float64
	Size         float64
	Width        float64
	// Slowdown is response time divided by the job's isolated runtime
	// (size / min(width, capacity)).
	Slowdown float64
}

// Result reports a whole fluid run. The embedded kernel accumulator
// provides Scheduler, Makespan, Utilization and the response-time/slowdown
// statistics (MeanResponseTime, ResponseTimes, Slowdowns), recorded in
// trace order.
type Result struct {
	substrate.Result
	Jobs []JobResult
	// Rounds is the number of scheduling rounds executed (instrumentation).
	Rounds int
}

type fluidJob struct {
	spec     JobSpec
	seq      int
	attained float64
	rate     float64
	done     bool
	view     jobView // embedded adapter, reused across rounds
}

func (j *fluidJob) remaining() float64 { return j.spec.Size - j.attained }

func (j *fluidJob) finished() bool {
	return j.remaining() <= 1e-9*math.Max(1, j.spec.Size)
}

// jobView adapts fluidJob to sched.JobView with the run's demand granularity.
type jobView struct {
	j            *fluidJob
	taskDuration float64
}

var (
	_ sched.JobView    = (*jobView)(nil)
	_ sched.ExactSizer = (*jobView)(nil)
)

func (v *jobView) ID() int           { return v.j.spec.ID }
func (v *jobView) Seq() int          { return v.j.seq }
func (v *jobView) Priority() int     { return v.j.spec.Priority }
func (v *jobView) Attained() float64 { return v.j.attained }

// Estimated equals Attained: fluid jobs have no stage structure to project.
func (v *jobView) Estimated() float64 { return v.j.attained }

func (v *jobView) demand() float64 {
	rem := v.j.remaining()
	if rem <= 0 {
		return 0
	}
	tasks := rem
	if v.taskDuration > 0 {
		tasks = math.Ceil(rem / v.taskDuration)
	}
	return math.Min(v.j.spec.Width, tasks)
}

func (v *jobView) ReadyDemand() float64     { return v.demand() }
func (v *jobView) RemainingDemand() float64 { return v.demand() }

func (v *jobView) SizeHint() float64 {
	if v.j.spec.SizeHint > 0 {
		return v.j.spec.SizeHint
	}
	return v.j.spec.Size
}

func (v *jobView) RemainingSizeHint() float64 {
	rem := v.SizeHint() - v.j.attained
	if rem < 0 {
		return 0
	}
	return rem
}

// ExactRemaining implements sched.ExactSizer: the true remaining service,
// independent of any SizeHint perturbation — the clairvoyant input SRPT
// needs.
func (v *jobView) ExactRemaining() float64 {
	rem := v.j.remaining()
	if rem < 0 {
		return 0
	}
	return rem
}

// Run simulates the trace under the given policy. The scheduler instance
// must be fresh.
func Run(specs []JobSpec, policy sched.Scheduler, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, errors.New("fluid: nil scheduler")
	}
	seen := make(map[int]bool, len(specs))
	for i := range specs {
		s := &specs[i]
		if s.Size <= 0 {
			return nil, fmt.Errorf("fluid: job %d has non-positive size %v", s.ID, s.Size)
		}
		if s.Width < 1 {
			return nil, fmt.Errorf("fluid: job %d has width %v < 1", s.ID, s.Width)
		}
		if s.Arrival < 0 {
			return nil, fmt.Errorf("fluid: job %d has negative arrival %v", s.ID, s.Arrival)
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("fluid: duplicate job ID %d", s.ID)
		}
		seen[s.ID] = true
	}
	s := newSim(specs, policy, cfg)
	defer s.release()
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// arena is the fluid run's slab-allocated state: all fluidJob records live
// in one flat slice (fixed length per run, so pointers into it are stable),
// with the pending/active pointer lists, the result map and the view
// registry keeping their backing storage. Arenas are pooled so repeated runs
// on one worker — the replication engine sweeping seeds — reuse storage
// instead of re-allocating one fluidJob per trace job per run.
type arena struct {
	jobs    []fluidJob
	pending []*fluidJob // sorted by arrival (stable on trace order)
	active  []*fluidJob
	results map[int]JobResult
	vs      substrate.ViewSet
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// build lays the trace out in the slab and sorts the pending list.
func (a *arena) build(specs []JobSpec, taskDuration float64) {
	a.jobs = substrate.GrowSlab(a.jobs, len(specs))
	a.pending = a.pending[:0]
	a.active = a.active[:0]
	if a.results == nil {
		a.results = make(map[int]JobResult, len(specs))
	} else {
		clear(a.results)
	}
	for i := range specs {
		j := &a.jobs[i]
		j.spec = specs[i]
		j.view.j = j
		j.view.taskDuration = taskDuration
		a.pending = append(a.pending, j)
	}
	slices.SortStableFunc(a.pending, func(x, y *fluidJob) int {
		if x.spec.Arrival < y.spec.Arrival {
			return -1
		}
		if x.spec.Arrival > y.spec.Arrival {
			return 1
		}
		return 0
	})
}

// buildStream resets the arena for a streaming run: job records come from
// the run's free-list pool rather than the jobs slab, so only the pointer
// lists, result map and view registry are prepared (with backing storage
// kept, as in build).
func (a *arena) buildStream() {
	a.pending = a.pending[:0]
	a.active = a.active[:0]
	clear(a.results)
}

// scrub drops every reference the arena holds into the finished run so a
// pooled arena cannot pin caller memory, keeping the backing storage.
func (a *arena) scrub() {
	clear(a.jobs)
	clear(a.pending)
	a.pending = a.pending[:0]
	clear(a.active)
	a.active = a.active[:0]
	clear(a.results)
	a.vs.Reset()
}

// arrivalCursor feeds the run loop its arrival stream: Peek reports the next
// arrival time (or that the stream is exhausted, or a source error), and Pop
// consumes the peeked job. Run walks the arena's pre-sorted pending list
// (substrate.SliceCursor); RunStream pulls specs from a Source and
// materializes job records from a free-list pool on demand
// (substrate.StreamCursor), so both share one event loop — the operations
// (and their floating-point order) are identical, which is what makes the
// streaming-versus-materialized differential byte-exact.
type arrivalCursor = substrate.Cursor[fluidJob]

func fluidJobArrival(j *fluidJob) float64 { return j.spec.Arrival }

// sim is one fluid run: the kernel modules (policy driver, admission queue,
// view registry) plus the fluid-specific state — continuous time, fractional
// rates, and exact event computation. The embedded arena holds the slab of
// job records and the reused per-run storage.
type sim struct {
	cfg    Config
	specs  []JobSpec
	probe  obs.Probe
	driver *substrate.Driver
	adm    *substrate.Queue[*fluidJob]
	*arena

	// slowdowns receives per-job slowdowns at completion, resolved once from
	// the probe (obs.FindHistograms). Slowdown is fluid-derived state, not a
	// probe event, so it reaches the histogram sink through this side-channel.
	slowdowns obs.SlowdownObserver

	cur    arrivalCursor
	finish func(j *fluidJob, jr JobResult) // per-completion sink
	now    float64

	rounds    int
	makespan  float64
	delivered float64
}

func newSim(specs []JobSpec, policy sched.Scheduler, cfg Config) *sim {
	ar := arenaPool.Get().(*arena)
	reused := cap(ar.jobs) > 0
	ar.build(specs, cfg.TaskDuration)
	s := &sim{
		cfg:    cfg,
		specs:  specs,
		probe:  cfg.Probe,
		driver: substrate.NewDriver(policy),
		adm:    substrate.NewQueue[*fluidJob](cfg.MaxRunningJobs),
		arena:  ar,
	}
	s.cur = &substrate.SliceCursor[fluidJob]{List: ar.pending, Arrival: fluidJobArrival}
	s.finish = func(j *fluidJob, jr JobResult) { s.results[j.spec.ID] = jr }
	s.driver.SetProbe(cfg.Probe)
	if h := obs.FindHistograms(cfg.Probe); h != nil {
		s.slowdowns = h
	}
	if s.probe != nil {
		s.probe.ArenaReuse(len(specs), 0, reused)
	}
	return s
}

// release scrubs the sim's arena and returns it to the pool. The sim must
// not be used afterwards.
func (s *sim) release() {
	ar := s.arena
	s.arena = nil
	ar.scrub()
	arenaPool.Put(ar)
}

// admit releases waiting jobs while the admission limit allows; released
// jobs join the active set with their kernel-issued sequence number.
func (s *sim) admit() {
	s.adm.Admit(func(j *fluidJob, seq int) {
		j.seq = seq
		s.active = append(s.active, j)
		if s.probe != nil {
			s.probe.JobAdmitted(s.now, j.spec.ID, math.Max(0, s.now-j.spec.Arrival))
		}
	})
}

func (s *sim) run() error {
	capacity := s.cfg.Capacity
	for {
		// Admit arrivals due by now.
		for {
			t, ok, err := s.cur.Peek()
			if err != nil {
				return err
			}
			if !ok || t > s.now+1e-12 {
				break
			}
			j := s.cur.Pop()
			s.adm.Push(j)
			if s.probe != nil {
				s.probe.JobSubmitted(s.now, j.spec.ID)
			}
		}
		s.admit()

		if len(s.active) == 0 {
			// Idle: jump to the next arrival.
			t, ok, err := s.cur.Peek()
			if err != nil {
				return err
			}
			if !ok {
				if s.adm.Waiting() > 0 {
					return s.adm.Stuck("fluid")
				}
				break
			}
			if t > s.now {
				s.now = t
			}
			continue
		}

		// Build views and ask the policy for shares through the kernel driver
		// (which reuses the allocation buffer for buffered policies); slot i
		// of the views and the shares is active job i.
		s.vs.Begin(false, false)
		for _, j := range s.active {
			s.vs.Add(&j.view)
		}
		views := s.vs.Views()
		alloc := s.driver.Assign(s.now, capacity, views)
		s.rounds++

		// Apply rates (defensively capped by width).
		shares := alloc.Shares()
		for i, j := range s.active {
			j.rate = math.Min(shares[i], j.spec.Width)
			if j.rate < 0 {
				j.rate = 0
			}
		}

		// Next event: arrival, earliest completion, policy horizon, step cap.
		next := math.Inf(1)
		if t, ok, err := s.cur.Peek(); err != nil {
			return err
		} else if ok {
			next = t
		}
		for _, j := range s.active {
			if j.rate > 0 {
				if t := s.now + j.remaining()/j.rate; t < next {
					next = t
				}
			}
		}
		if h := s.driver.Horizon(s.now, views, alloc); h < next {
			next = h
		}
		if s.cfg.MaxStep > 0 && s.now+s.cfg.MaxStep < next {
			next = s.now + s.cfg.MaxStep
		}
		if math.IsInf(next, 1) || next <= s.now {
			return fmt.Errorf("fluid: no progress at t=%v with %d active jobs (total rate %v)",
				s.now, len(s.active), alloc.Total())
		}

		// Advance time and service.
		dt := next - s.now
		s.now = next
		live := s.active[:0]
		for _, j := range s.active {
			s.delivered += j.rate * dt
			j.attained += j.rate * dt
			if j.attained > j.spec.Size {
				j.attained = j.spec.Size
			}
			if j.finished() {
				j.done = true
				s.adm.Done()
				iso := j.spec.Size / math.Min(j.spec.Width, capacity)
				response := s.now - j.spec.Arrival
				jr := JobResult{
					ID:           j.spec.ID,
					Arrival:      j.spec.Arrival,
					Completed:    s.now,
					ResponseTime: response,
					Size:         j.spec.Size,
					Width:        j.spec.Width,
					Slowdown:     response / iso,
				}
				if s.now > s.makespan {
					s.makespan = s.now
				}
				if s.probe != nil {
					s.probe.JobDone(s.now, j.spec.ID, response)
				}
				if s.slowdowns != nil {
					s.slowdowns.ObserveSlowdown(jr.Slowdown)
				}
				s.finish(j, jr)
				continue
			}
			live = append(live, j)
		}
		s.active = live
	}
	return nil
}

func (s *sim) result() *Result {
	res := &Result{Rounds: s.rounds}
	res.Scheduler = s.driver.Name()
	res.Makespan = s.makespan
	if s.makespan > 0 {
		res.Utilization = s.delivered / (s.makespan * s.cfg.Capacity)
	}
	// Report in trace order.
	for i := range s.specs {
		jr := s.results[s.specs[i].ID]
		res.Jobs = append(res.Jobs, jr)
		res.Record(0, jr.ResponseTime)
		res.RecordSlowdown(jr.Slowdown)
	}
	res.FoldCounters(s.probe)
	return res
}
