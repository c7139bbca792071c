// Command lasmqbench is the repository benchmark. One run sweeps the paper's
// four policies (LAS_MQ, LAS, FAIR, FIFO) over inputs generated from --seed
// on one workload, repeatedly for --seconds, and reports the simulators' host
// cost: simulated jobs per host second, set-up time, peak heap and bytes
// allocated per job. The simulated results serve only as output checks, and
// every policy run is one checked operation. With --trace 1 it instead
// reports a per-layer breakdown recorded from spans around the calls into
// each layer. The last line of standard output is one JSON object.
//
//	go build -o lasmqbench . && ./lasmqbench --workload engine-stream --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// Input sizes. A sweep covers several traces, each generated from its own
// seed derived from --seed: how much host time a job costs depends on how
// congested its heavy-tailed trace is, which differs a lot from one draw to
// the next, and only more draws per run even that out.
const (
	engineJobs = 2500
	fluidJobs  = 24443
	// setupRepeats is how often a sweep sets its inputs up; the last set-up
	// is the one run, and every one is a set-up time sample.
	setupRepeats = 5
	// minSweeps is the fewest timed sweeps an end-to-end run makes; the
	// typical wall takes each policy run's median over them.
	minSweeps = 3
)

// workload is one benchmark workload: a simulated system and how its timed
// sweeps drive it.
type workload struct {
	name string
	// why the workload is in the benchmark, for the run's header line.
	why    string
	system func(seeds []int64) system
	// traces is how many traces a sweep covers, and subset how many of them
	// the traced run and the memory pass cover: both cost several timed
	// runs per trace, and a traced sweep's spans must fit the span buffer.
	traces, subset int
	// heapEvery is how many assignments apart the memory pass samples the
	// live heap: a sample costs a full collection, and fluid's rounds are
	// both more numerous and over a larger heap than the engine's.
	heapEvery int
	// engine is set when the sweep runs the task-level engine, so its
	// remainder time is engine self time rather than fluid's.
	engine bool
	// probed attaches obs.Multi(Counters, Histograms) to every policy run.
	probed bool
	// workers is the shard worker count the timed sweeps request.
	workers int
}

var workloads = []workload{
	{
		name:      "engine-stream",
		why:       "task-level engine on the streamed staged trace: narrow rounds, many per job, quantizer and bookkeeping heavy",
		system:    func(seeds []int64) system { return engineSystem{seeds: seeds, jobs: engineJobs} },
		traces:    24,
		subset:    12,
		heapEvery: 512,
		engine:    true,
		workers:   1,
	},
	{
		name:      "fluid-trace",
		why:       "materialized Fig. 7a trace through fluid.Run: wide rounds, Horizon at every event, no quantizer",
		system:    func(seeds []int64) system { return fluidSystem{seeds: seeds, jobs: fluidJobs} },
		traces:    10,
		subset:    4,
		heapEvery: 2048,
		workers:   1,
	},
	{
		name:      "engine-observed",
		why:       "engine-stream's system with Counters and Histograms attached and 2 shard workers requested",
		system:    func(seeds []int64) system { return engineSystem{seeds: seeds, jobs: engineJobs} },
		traces:    24,
		subset:    12,
		heapEvery: 512,
		engine:    true,
		probed:    true,
		workers:   2,
	},
}

// traceSeeds derives the n trace seeds of run seed: runs with different
// seeds share no trace.
func traceSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*int64(n) + int64(i)
	}
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lasmqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: engine-stream, fluid-trace or engine-observed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "1 reports the per-layer breakdown of a traced run instead of the end-to-end metrics")
	spanDir := fs.String("span-dir", "", "directory a traced run writes its raw spans to (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "lasmqbench: want --workload engine-stream|fluid-trace|engine-observed, --seconds > 0, --trace 0|1\n")
		return 2
	}
	w := workloads[i]
	fmt.Fprintf(stdout, "machine: nproc=%d gomaxprocs=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(stdout, "workload: %s seed=%d (%s)\n", w.name, *seed, w.why)

	seeds := traceSeeds(*seed, w.traces)
	if *traced == 1 {
		seeds = seeds[:w.subset]
	}
	b := &bench{w: w, sys: w.system(seeds), out: stdout}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *traced == 1 {
		spans := ""
		if *spanDir != "" {
			spans = filepath.Join(*spanDir, w.name+".spans")
		}
		res, err = b.traced(budget, spans)
	} else {
		res, err = b.endToEnd(budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "lasmqbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "lasmqbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs one workload's sweeps and tallies their checked operations.
type bench struct {
	w   workload
	sys system
	out io.Writer

	expected  []outcome
	attempted int
	failed    int
}

// sweepStats is what one timed sweep measured.
type sweepStats struct {
	setups []time.Duration // every set-up of the sweep's inputs
	runs   []time.Duration // wall of each policy run, in sweep order
	jobs   int
	allocs uint64
	gcCPU  float64
	gcs    uint64
}

// typicalWall is the wall of a typical sweep: the sum, over the policy runs
// of a sweep, of each run's median wall across the sweeps. Other tenants of
// the host slow single runs at random, and a per-run median discards those
// slowdowns better than a median of whole sweeps does.
func typicalWall(sweeps []sweepStats) time.Duration {
	var d time.Duration
	for i := range sweeps[0].runs {
		d += time.Duration(median(sweeps, func(s sweepStats) float64 { return float64(s.runs[i]) }))
	}
	return d
}

// verify runs the system's reference computations and prints the expected
// digest, one line per seed and policy. It returns the simulated counts of
// the system's telemetry sinks.
func (b *bench) verify() (map[string]float64, error) {
	exp, counts, err := b.sys.expected()
	if err != nil {
		return nil, err
	}
	b.expected = exp
	for _, o := range exp {
		status := "ok"
		if o.problem != "" {
			status = "FAILED: " + o.problem
		}
		fmt.Fprintf(b.out, "digest %s %s %s\n", b.w.name, o.digest(), status)
	}
	return counts, nil
}

// variant is one way of running the workload's system in a sweep, with the
// statistics of each sweep it took part in.
type variant struct {
	t       *tracer
	probed  bool
	workers int
	stats   []sweepStats
}

// sweep sets up each variant's inputs and runs their policy runs
// interleaved: policy run i of every variant, then run i+1. The variants of
// one policy run then execute within seconds of each other, so a slow spell
// of the host hits them alike and cancels from their comparison. Set-ups and
// the timed region start from a fresh garbage collection, so neither pays
// for the other's garbage.
func (b *bench) sweep(vs ...*variant) error {
	sws := make([]sweep, len(vs))
	stats := make([]sweepStats, len(vs))
	for k, v := range vs {
		for i := 0; i < setupRepeats; i++ {
			runtime.GC()
			t0 := time.Now()
			sw, err := b.sys.setup(instruments{t: v.t}, v.probed)
			if err != nil {
				return err
			}
			stats[k].setups = append(stats[k].setups, time.Since(t0))
			sws[k] = sw
		}
	}
	meters := make([]*meter, len(vs))
	for k := range vs {
		meters[k] = newMeter()
	}
	for i := 0; i < sws[0].size(); i++ {
		for k, v := range vs {
			o, err := sws[k].run(i, v.workers, meters[k])
			if err != nil {
				return err
			}
			b.check(i, o)
		}
	}
	for k, v := range vs {
		m := meters[k]
		st := &stats[k]
		st.runs, st.jobs, st.allocs, st.gcCPU, st.gcs = m.runs, m.jobs, m.allocs, m.gcCPU, m.gcCycles
		v.stats = append(v.stats, *st)
	}
	return nil
}

// check counts policy run i's outcome as one operation, failed unless it
// matches the expected one: same job count and mean response bits, no
// response below its lower bound, and a reference that passed its own
// checks.
func (b *bench) check(i int, o outcome) {
	b.attempted++
	if i >= len(b.expected) {
		b.failed++
		return
	}
	want := b.expected[i]
	if want.problem != "" || o.belowBound > 0 || o.digest() != want.digest() {
		b.failed++
		fmt.Fprintf(b.out, "check failed: %s %s (expected %s, %d below bound)\n", b.w.name, o.digest(), want.digest(), o.belowBound)
	}
}

// repeat calls sweep until the budget would be overrun by one more call,
// but at least atLeast times.
func repeat(budget time.Duration, atLeast int, sweep func() error) error {
	start := time.Now()
	for n := 1; ; n++ {
		if err := sweep(); err != nil {
			return err
		}
		elapsed := time.Since(start)
		if n >= atLeast && elapsed+elapsed/time.Duration(n) > budget {
			return nil
		}
	}
}

func (b *bench) endToEnd(budget time.Duration) (result, error) {
	if _, err := b.verify(); err != nil {
		return result{}, err
	}
	v := &variant{probed: b.w.probed, workers: b.w.workers}
	if err := repeat(budget, minSweeps, func() error { return b.sweep(v) }); err != nil {
		return result{}, err
	}
	sweeps := v.stats
	var setups []time.Duration
	for _, st := range sweeps {
		setups = append(setups, st.setups...)
	}
	wall := typicalWall(sweeps)
	peak, err := b.peakHeap()
	if err != nil {
		return result{}, err
	}
	metrics := map[string]metric{
		"jobs_per_s":          {float64(sweeps[0].jobs) / wall.Seconds(), "jobs/s"},
		"setup_s":             {median(setups, time.Duration.Seconds), "s"},
		"peak_heap_bytes":     {peak, "bytes"},
		"alloc_bytes_per_job": {median(sweeps, func(s sweepStats) float64 { return float64(s.allocs) / float64(s.jobs) }), "bytes/job"},
	}
	fmt.Fprintf(b.out, "sweeps: %d, typical sweep wall %.3fs, median %.0f GC cycles\n", len(sweeps), wall.Seconds(),
		median(sweeps, func(s sweepStats) float64 { return float64(s.gcs) }))
	return b.result(metrics), nil
}

// peakHeap is the memory pass, run after the timed sweeps. It runs the
// policy runs of the workload's first subset traces once more, each
// trace on inputs of its own so no other trace's inputs are live, with the
// live heap sampled through a heap probe. It runs the shards on one worker:
// the probe is single-threaded, and its collections are exact only while no
// other shard allocates. It returns the median over those runs of each run's
// live-heap high-water mark. Its runs are checked operations like the timed
// ones.
func (b *bench) peakHeap() (float64, error) {
	t0 := time.Now()
	m := newMeter()
	m.heap = newHeapProbe(b.w.heapEvery)
	traces := b.sys.split()
	for t, sys := range traces[:min(b.w.subset, len(traces))] {
		sw, err := sys.setup(instruments{heap: m.heap}, b.w.probed)
		if err != nil {
			return 0, err
		}
		for i := 0; i < sw.size(); i++ {
			o, err := sw.run(i, 1, m)
			if err != nil {
				return 0, err
			}
			b.check(t*len(policyOrder)+i, o)
		}
	}
	peak := median(m.peaks, func(p uint64) float64 { return float64(p) })
	fmt.Fprintf(b.out, "memory pass: %d runs in %.1fs, live-heap peaks %d..%d bytes, median %.0f\n",
		len(m.peaks), time.Since(t0).Seconds(), slices.Min(m.peaks), slices.Max(m.peaks), peak)
	return peak, nil
}

func (b *bench) result(metrics map[string]metric) result {
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
}

// traced measures the per-layer breakdown and writes the last round's spans
// to spanPath when it is set. Each round is one interleaved sweep of the
// workload's system untraced and traced, both with one shard worker because
// the tracer is single-threaded; their ratio is the tracing overhead. On
// engine-observed the round adds the system without its sinks at one and two
// workers: the sinks' cost is the untraced wall with them minus without, and
// the shard pool's parallel efficiency is the ratio of the walls at one and
// two workers.
func (b *bench) traced(budget time.Duration, spanPath string) (result, error) {
	counts, err := b.verify()
	if err != nil {
		return result{}, err
	}
	t, err := newTracer()
	if err != nil {
		return result{}, err
	}
	defer t.close()
	untraced := &variant{probed: b.w.probed, workers: 1}
	traced := &variant{t: t, probed: b.w.probed, workers: 1}
	bare := &variant{workers: 1}
	bare2 := &variant{workers: 2}
	vs := []*variant{untraced, traced}
	if b.w.probed {
		vs = append(vs, bare, bare2)
	}
	var layers []map[string]float64
	err = repeat(budget, 1, func() error {
		t.reset()
		if err := b.sweep(vs...); err != nil {
			return err
		}
		if t.full {
			return fmt.Errorf("traced sweep recorded more than %d spans", spanCapacity)
		}
		layers = append(layers, attribute(t).metrics(b.w.engine))
		return nil
	})
	if err != nil {
		return result{}, err
	}
	if spanPath != "" {
		if err := t.writeTo(spanPath); err != nil {
			return result{}, err
		}
	}

	metrics := make(map[string]metric)
	for name := range layers[0] {
		metrics[name] = metric{median(layers, func(m map[string]float64) float64 { return m[name] }), unitOf(name)}
	}
	for name, v := range counts {
		metrics[name] = metric{v, unitOf(name)}
	}
	for _, name := range engineCountNames {
		if _, ok := metrics[name]; !ok {
			metrics[name] = metric{0, unitOf(name)}
		}
	}
	u, tw := typicalWall(untraced.stats).Seconds(), typicalWall(traced.stats).Seconds()
	metrics["trace.untraced_wall_s"] = metric{u, "s"}
	metrics["trace.overhead_share"] = metric{tw/u - 1, "ratio"}
	metrics["runtime.gc_cpu_s"] = metric{median(untraced.stats, func(s sweepStats) float64 { return s.gcCPU }), "s"}
	metrics["runtime.gc_cycles"] = metric{median(untraced.stats, func(s sweepStats) float64 { return float64(s.gcs) }), "count"}
	metrics["obs.self_s"] = metric{0, "s"}
	metrics["substrate.shard_efficiency"] = metric{0, "ratio"}
	if b.w.probed {
		one, two := typicalWall(bare.stats).Seconds(), typicalWall(bare2.stats).Seconds()
		metrics["obs.self_s"] = metric{u - one, "s"}
		metrics["substrate.shard_efficiency"] = metric{one / (2 * two), "ratio"}
	}
	fmt.Fprintf(b.out, "rounds: %d, typical untraced sweep wall %.3fs, traced %.3fs\n", len(layers), u, tw)
	return b.result(metrics), nil
}

// engineCountNames are the simulated counts of engine-observed's sinks,
// reported as 0 on a workload without the engine.
var engineCountNames = []string{
	"engine.rounds_executed", "engine.rounds_skipped", "engine.skip_ratio", "engine.tasks_launched",
	"engine.attempt_useful_ratio", "engine.spec_launches", "eventq.migrations",
	"substrate.admission_wait_p99_s", "obs.round_latency_p99_us",
}

// unitOf derives a per-layer metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case name == "substrate.admission_wait_p99_s":
		return "sim_s"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s") || strings.Contains(name, "_s."):
		return "s"
	case strings.HasSuffix(name, "_share") || strings.HasSuffix(name, ".share") || strings.HasSuffix(name, "_ratio") ||
		strings.HasSuffix(name, "_imbalance") || strings.HasSuffix(name, "_efficiency"):
		return "ratio"
	case strings.HasSuffix(name, "_per_assign"):
		return "jobs/call"
	}
	return "count"
}

func median[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	slices.Sort(vs)
	n := len(vs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
