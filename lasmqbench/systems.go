package main

import (
	"fmt"
	"math"
	"sync/atomic"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/experiments"
	"lasmq/internal/fluid"
	"lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
	"lasmq/internal/trace"
	staging "lasmq/internal/workload"
)

// outcome is the simulated result of one policy run, the part the output
// checks and the digest look at.
type outcome struct {
	seed   int64
	policy string
	jobs   int
	mean   float64
	// belowBound counts jobs whose response time is below the job's isolated
	// lower bound, where the run exposes per-job results.
	belowBound int
	// problem, on an expected outcome, names the reference check it failed;
	// every timed run of that policy then counts as failed.
	problem string
}

func (o outcome) digest() string {
	return fmt.Sprintf("seed=%d %-6s mean=%#016x jobs=%d", o.seed, o.policy, math.Float64bits(o.mean), o.jobs)
}

// system is one simulated system a workload sweeps the four policies over.
type system interface {
	// setup generates the inputs of one sweep and constructs its sources and
	// policies, which report to in.
	setup(in instruments, probed bool) (sweep, error)
	// expected runs the matching experiments runner outside any timed
	// region. It returns the outcomes every timed sweep must reproduce, and
	// the simulated counts of the system's telemetry sinks where it has any.
	expected() ([]outcome, map[string]float64, error)
	// split returns the system once per trace, restricted to that trace.
	split() []system
}

// sweep is the constructed input of one sweep: size policy runs, seed-major
// and in policyOrder within a seed. run executes policy run i, timing it
// through m, and returns its outcome; each run executes once.
type sweep interface {
	size() int
	run(i, workers int, m *meter) (outcome, error)
}

var policyOrder = experiments.PolicyOrder

// newPolicy builds one of the paper's four policies with the LAS_MQ
// configuration the matching experiments runner uses: the trace simulations
// run the basic multilevel queue (flat jobs have no stages to be aware of);
// the engine keeps stage awareness and demand ordering.
func newPolicy(name string, flat bool) (sched.Scheduler, error) {
	switch name {
	case experiments.PolicyLASMQ:
		cfg := core.DefaultConfig()
		cfg.FirstThreshold = 1
		if flat {
			cfg.StageAware = false
			cfg.OrderByDemand = false
		}
		return core.New(cfg)
	case experiments.PolicyLAS:
		return sched.NewLAS(), nil
	case experiments.PolicyFair:
		return sched.NewFair(), nil
	case experiments.PolicyFIFO:
		return sched.NewFIFO(), nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

// Engine system: experiments.Scale1MEngine's configuration at a fixed trace
// length. Each of engineShards sub-clusters has 20 containers, the 30-job
// admission cap and light chaos.
const (
	engineShards          = 2
	engineShardContainers = 20
)

type engineSystem struct {
	seeds []int64
	jobs  int
}

func (e engineSystem) split() []system {
	out := make([]system, len(e.seeds))
	for i := range e.seeds {
		out[i] = engineSystem{seeds: e.seeds[i : i+1], jobs: e.jobs}
	}
	return out
}

func (e engineSystem) traceConfig(seed int64) trace.FacebookConfig {
	tcfg := trace.DefaultFacebookConfig()
	tcfg.Jobs = e.jobs
	tcfg.Seed = seed
	tcfg.Capacity = engineShardContainers * engineShards
	return tcfg
}

func (e engineSystem) config(seed int64, probe obs.Probe, workers int) engine.ShardedConfig {
	cfg := engine.DefaultConfig()
	cfg.Containers = engineShardContainers * engineShards
	cfg.MaxRunningJobs = 30
	cfg.FailureProb = 0.01
	cfg.StragglerProb = 0.02
	cfg.StragglerFactor = 3
	cfg.Speculation = true
	cfg.Seed = seed
	cfg.Probe = probe
	return engine.ShardedConfig{Config: cfg, Shards: engineShards, Workers: workers}
}

// source builds shard's staged job stream, recording spans on t when set.
func (e engineSystem) source(seed int64, shard int, t *tracer) (engine.Source, error) {
	src, err := trace.NewFacebookSource(e.traceConfig(seed))
	if err != nil {
		return nil, err
	}
	flat := substrate.Strided[substrate.JobSpec](src, shard, engineShards)
	if t != nil {
		flat = &tracedStream[substrate.JobSpec]{src: flat, t: t, name: spanNext}
	}
	staged, err := staging.NewStageSource(flat, staging.DefaultStageConfig())
	if err != nil {
		return nil, err
	}
	if t != nil {
		staged = &tracedStream[job.Spec]{src: staged, t: t, name: spanStage}
	}
	return staged, nil
}

// observedProbe is engine-observed's telemetry: both aggregating sinks.
func observedProbe() obs.Probe { return obs.Multi(obs.NewCounters(), obs.NewHistograms()) }

// engineRun is the constructed input of one policy run.
type engineRun struct {
	seed     int64
	policy   string
	sources  []engine.Source // per shard
	policies []sched.Scheduler
	probe    obs.Probe // nil when unprobed
}

type engineSweep struct {
	sys  engineSystem
	t    *tracer
	runs []engineRun
}

func (e engineSystem) setup(in instruments, probed bool) (sweep, error) {
	sw := &engineSweep{sys: e, t: in.t}
	for _, seed := range e.seeds {
		for _, name := range policyOrder {
			r := engineRun{seed: seed, policy: name}
			for shard := 0; shard < engineShards; shard++ {
				src, err := e.source(seed, shard, in.t)
				if err != nil {
					return nil, err
				}
				pol, err := newPolicy(name, false)
				if err != nil {
					return nil, err
				}
				if pol, err = timePolicy(pol, in, true); err != nil {
					return nil, err
				}
				r.sources = append(r.sources, src)
				r.policies = append(r.policies, pol)
			}
			if probed {
				r.probe = observedProbe()
			}
			sw.runs = append(sw.runs, r)
		}
	}
	return sw, nil
}

func (sw *engineSweep) size() int { return len(sw.runs) }

func (sw *engineSweep) run(i, workers int, m *meter) (outcome, error) {
	r := sw.runs[i]
	// Drop the sweep's references so a finished run's sources and policies
	// are garbage, as they would be without the benchmark.
	sw.runs[i] = engineRun{}
	var claimed atomic.Int32
	newPolicy := func() (sched.Scheduler, error) {
		return r.policies[claimed.Add(1)-1], nil
	}
	shardSpan := int32(-1)
	newSource := func(shard int) (engine.Source, error) {
		if sw.t != nil {
			// Traced sweeps run their shards serially, so shard k ends
			// where shard k+1 begins.
			sw.t.end(shardSpan)
			shardSpan = sw.t.begin(spanShard)
		}
		return r.sources[shard], nil
	}
	cfg := sw.sys.config(r.seed, r.probe, workers)
	m.start()
	runSpan := sw.t.beginRun(r.policy)
	res, err := engine.RunSharded(newSource, newPolicy, cfg)
	sw.t.end(shardSpan)
	sw.t.end(runSpan)
	m.stop()
	if err != nil {
		return outcome{}, fmt.Errorf("seed %d %s: %w", r.seed, r.policy, err)
	}
	m.jobs += res.Jobs
	return outcome{seed: r.seed, policy: r.policy, jobs: res.Jobs, mean: res.MeanResponseTime()}, nil
}

// expected runs experiments.Scale1MEngine on every trace with
// engine-observed's sinks attached, plus a sink that checks every completed
// job against its isolated lower bound. The timed sweeps run without the
// sinks, so matching these outcomes also shows probed ≡ unprobed. It
// returns the sinks' counts summed over the traces.
func (e engineSystem) expected() ([]outcome, map[string]float64, error) {
	var out []outcome
	c, h := obs.NewCounters(), obs.NewHistograms()
	for _, seed := range e.seeds {
		chk := &completionCheck{bound: make(map[int]float64), done: make(map[int]int)}
		for shard := 0; shard < engineShards; shard++ {
			src, err := e.source(seed, shard, nil)
			if err != nil {
				return nil, nil, err
			}
			for {
				spec, ok, err := src.Next()
				if err != nil {
					return nil, nil, err
				}
				if !ok {
					break
				}
				chk.bound[spec.ID] = criticalPath(&spec)
			}
		}
		ref, err := experiments.Scale1MEngine(experiments.Options{
			Seed: seed, Scale1MJobs: e.jobs, Shards: engineShards, ShardWorkers: 1,
			Probe: obs.Multi(chk, c, h),
		})
		if err != nil {
			return nil, nil, err
		}
		// Every job must complete once under each policy.
		jobs := len(chk.bound)
		for id := range chk.bound {
			if chk.done[id] != len(policyOrder) {
				jobs = -1
			}
		}
		seedOut := make([]outcome, 0, len(policyOrder))
		for _, name := range policyOrder {
			seedOut = append(seedOut, outcome{seed: seed, policy: name, jobs: jobs, mean: ref.Mean[name], belowBound: chk.below})
		}
		checkOutcomes(seedOut, e.jobs, ref.Mean)
		out = append(out, seedOut...)
	}
	return out, sinkMetrics(c, h), nil
}

// completionCheck is a probe sink that counts each job's completions and
// those whose response time beats the job's isolated lower bound.
type completionCheck struct {
	obs.Nop
	bound map[int]float64
	done  map[int]int
	below int
}

func (c *completionCheck) JobDone(_ float64, job int, response float64) {
	c.done[job]++
	if lb, ok := c.bound[job]; !ok || belowBound(response, lb) {
		c.below++
	}
}

// sinkMetrics reports the simulated counts engine-observed's sinks
// recorded.
func sinkMetrics(c *obs.Counters, h *obs.Histograms) map[string]float64 {
	snap := c.Snapshot()
	waits, _ := h.Histogram(obs.HistAdmissionWait)
	latencies, _ := h.Histogram(obs.HistRoundLatency)
	m := map[string]float64{
		"engine.rounds_executed":         float64(snap.RoundsExecuted),
		"engine.rounds_skipped":          float64(snap.RoundsSkipped),
		"engine.skip_ratio":              snap.SkippedRoundRatio(),
		"engine.tasks_launched":          float64(snap.TasksLaunched),
		"engine.spec_launches":           float64(snap.SpecLaunches),
		"eventq.migrations":              float64(snap.EventqMigrations),
		"substrate.admission_wait_p99_s": waits.Quantile(0.99),
		"obs.round_latency_p99_us":       latencies.Quantile(0.99) * 1e6,
		"engine.attempt_useful_ratio":    0,
	}
	if snap.TasksLaunched > 0 {
		m["engine.attempt_useful_ratio"] = float64(snap.TasksCompleted) / float64(snap.TasksLaunched)
	}
	return m
}

// belowBound reports whether a response time beats its job's isolated lower
// bound by more than rounding allows: a response is the difference of two
// event times that can be large next to a tiny job, and the simulators count
// a job done with up to 1e-9 of its service left.
func belowBound(response, lb float64) bool { return response < lb*(1-1e-9)-1e-9 }

// criticalPath is a structured job's response time on an otherwise empty
// cluster with enough containers for every task: the longest chain of
// stages, each taking its longest task's nominal duration. Failures,
// stragglers and queueing only add to it.
func criticalPath(spec *job.Spec) float64 {
	finish := make([]float64, len(spec.Stages))
	var longest float64
	for i := range spec.Stages {
		var start float64
		for _, d := range spec.Deps(i) {
			start = math.Max(start, finish[d])
		}
		var dur float64
		for _, t := range spec.Stages[i].Tasks {
			dur = math.Max(dur, t.Duration)
		}
		finish[i] = start + dur
		longest = math.Max(longest, finish[i])
	}
	return longest
}

// Fluid system: experiments.Fig7HeavyTailed's materialized trace over
// several seeds.
type fluidSystem struct {
	seeds []int64
	jobs  int
}

func (f fluidSystem) split() []system {
	out := make([]system, len(f.seeds))
	for i := range f.seeds {
		out[i] = fluidSystem{seeds: f.seeds[i : i+1], jobs: f.jobs}
	}
	return out
}

func (f fluidSystem) traceConfig(seed int64) trace.FacebookConfig {
	tcfg := trace.DefaultFacebookConfig()
	tcfg.Jobs = f.jobs
	tcfg.Seed = seed
	return tcfg
}

func (f fluidSystem) config(capacity float64) fluid.Config {
	cfg := fluid.DefaultConfig()
	cfg.Capacity = capacity
	return cfg
}

type fluidSweep struct {
	sys      fluidSystem
	t        *tracer
	specs    [][]fluid.JobSpec   // per seed
	capacity []float64           // per seed
	policies [][]sched.Scheduler // [seed][policy]
}

func (f fluidSystem) setup(in instruments, _ bool) (sweep, error) {
	sw := &fluidSweep{sys: f, t: in.t}
	for _, seed := range f.seeds {
		tcfg := f.traceConfig(seed)
		specs, err := trace.Facebook(tcfg)
		if err != nil {
			return nil, err
		}
		var pols []sched.Scheduler
		for _, name := range policyOrder {
			pol, err := newPolicy(name, true)
			if err != nil {
				return nil, err
			}
			if pol, err = timePolicy(pol, in, false); err != nil {
				return nil, err
			}
			pols = append(pols, pol)
		}
		sw.specs = append(sw.specs, specs)
		sw.capacity = append(sw.capacity, tcfg.Capacity)
		sw.policies = append(sw.policies, pols)
	}
	return sw, nil
}

func (sw *fluidSweep) size() int { return len(sw.specs) * len(policyOrder) }

func (sw *fluidSweep) run(i, _ int, m *meter) (outcome, error) {
	si, pi := i/len(policyOrder), i%len(policyOrder)
	specs, name := sw.specs[si], policyOrder[pi]
	cfg := sw.sys.config(sw.capacity[si])
	pol := sw.policies[si][pi]
	sw.policies[si][pi] = nil // garbage once run, as without the benchmark
	m.start()
	runSpan := sw.t.beginRun(name)
	res, err := fluid.Run(specs, pol, cfg)
	sw.t.end(runSpan)
	m.stop()
	if err != nil {
		return outcome{}, fmt.Errorf("seed %d %s: %w", sw.sys.seeds[si], name, err)
	}
	m.jobs += res.Count()
	return fluidOutcome(sw.sys.seeds[si], name, specs, res, cfg.Capacity), nil
}

// fluidOutcome summarizes one fluid run, checking every job's response time
// against its isolated runtime size/min(width, capacity).
func fluidOutcome(seed int64, policy string, specs []fluid.JobSpec, res *fluid.Result, capacity float64) outcome {
	o := outcome{seed: seed, policy: policy, jobs: res.Count(), mean: res.MeanResponseTime()}
	for i, jr := range res.Jobs {
		if i >= len(specs) || jr.ID != specs[i].ID {
			o.belowBound++
			continue
		}
		if belowBound(jr.ResponseTime, specs[i].Size/math.Min(specs[i].Width, capacity)) {
			o.belowBound++
		}
	}
	return o
}

// expected takes the outcomes from experiments.Fig7HeavyTailed itself: the
// timed sweeps expose per-job results, so they check the lower bound on
// their own.
func (f fluidSystem) expected() ([]outcome, map[string]float64, error) {
	var out []outcome
	for _, seed := range f.seeds {
		ref, err := experiments.Fig7HeavyTailed(experiments.Options{Seed: seed, TraceJobs: f.jobs})
		if err != nil {
			return nil, nil, err
		}
		seedOut := make([]outcome, 0, len(policyOrder))
		for _, name := range policyOrder {
			seedOut = append(seedOut, outcome{seed: seed, policy: name, jobs: len(ref.Responses[name]), mean: ref.Mean[name]})
		}
		checkOutcomes(seedOut, f.jobs, ref.Mean)
		out = append(out, seedOut...)
	}
	return out, nil, nil
}

// checkOutcomes checks a reference sweep, recording the first failed check
// of each outcome in its problem: every generated job completed, no response
// beat its job's isolated lower bound, and the policy's mean response equals
// the experiments runner's to the last bit.
func checkOutcomes(out []outcome, jobs int, ref map[string]float64) {
	for i := range out {
		o := &out[i]
		want, ok := ref[o.policy]
		switch {
		case o.jobs != jobs:
			o.problem = fmt.Sprintf("%d of %d jobs completed", o.jobs, jobs)
		case o.belowBound > 0:
			o.problem = fmt.Sprintf("%d responses below the isolated lower bound", o.belowBound)
		case !ok || math.Float64bits(want) != math.Float64bits(o.mean):
			o.problem = fmt.Sprintf("experiments runner mean is %#016x", math.Float64bits(want))
		}
	}
}
