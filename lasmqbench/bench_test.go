package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"lasmq/internal/engine"
	"lasmq/internal/fluid"
	"lasmq/internal/obs"
	"lasmq/internal/trace"
)

// Small versions of the benchmark's systems, fast enough for unit tests.
var (
	smallEngine = engineSystem{seeds: []int64{3, 4}, jobs: 300}
	smallFluid  = fluidSystem{seeds: []int64{3}, jobs: 400}
)

func newTestTracer(t *testing.T) *tracer {
	t.Helper()
	tr, err := newTracer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := tr.close(); err != nil {
			t.Error(err)
		}
	})
	return tr
}

func TestTimingWrapperKeepsCapabilities(t *testing.T) {
	all := capBuffered | capObserver | capObserveHinter | capHinter | capProbeSetter
	want := map[string]capability{
		"LAS_MQ": all,
		"LAS":    capBuffered | capHinter,
		"FAIR":   capBuffered,
		"FIFO":   capBuffered,
	}
	tr := newTestTracer(t)
	for _, flat := range []bool{false, true} {
		for _, name := range policyOrder {
			p, err := newPolicy(name, flat)
			if err != nil {
				t.Fatal(err)
			}
			if got := capabilities(p); got != want[name] {
				t.Errorf("%s: bare policy has capabilities %05b, want %05b", name, got, want[name])
			}
			w, err := timePolicy(p, instruments{t: tr}, !flat)
			if err != nil {
				t.Fatal(err)
			}
			if got := capabilities(w); got != want[name] {
				t.Errorf("%s: wrapped policy has capabilities %05b, want %05b", name, got, want[name])
			}
		}
	}
}

// engineJobResults runs one seed and policy of s shard by shard, wrapped in
// the timing wrapper (with the quantizer replay) or bare, and returns every
// job's result in completion order plus the telemetry counts when probed.
func engineJobResults(t *testing.T, s engineSystem, seed int64, name string, tr *tracer, probed bool) ([]engine.JobResult, obs.CounterSnapshot) {
	t.Helper()
	var jobs []engine.JobResult
	var probe obs.Probe
	var counters *obs.Counters
	if probed {
		counters = obs.NewCounters()
		probe = obs.Multi(counters, obs.NewHistograms())
	}
	if tr != nil {
		defer tr.end(tr.beginRun(name))
	}
	for shard := 0; shard < engineShards; shard++ {
		src, err := s.source(seed, shard, tr)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := newPolicy(name, false)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			if pol, err = timePolicy(pol, instruments{t: tr}, true); err != nil {
				t.Fatal(err)
			}
		}
		cfg := s.config(seed+int64(shard), obs.ForShard(probe, shard), 1).Config
		cfg.Containers = engineShardContainers
		if _, err := engine.RunStream(src, pol, cfg, func(jr engine.JobResult) { jobs = append(jobs, jr) }); err != nil {
			t.Fatal(err)
		}
	}
	var snap obs.CounterSnapshot
	if counters != nil {
		snap = counters.Snapshot()
	}
	return jobs, snap
}

func TestWrappedMatchesBare(t *testing.T) {
	seed := smallEngine.seeds[0]
	for _, probed := range []bool{false, true} {
		for _, name := range policyOrder {
			bare, bareCounts := engineJobResults(t, smallEngine, seed, name, nil, probed)
			tr := newTestTracer(t)
			wrapped, wrappedCounts := engineJobResults(t, smallEngine, seed, name, tr, probed)
			if len(bare) != smallEngine.jobs {
				t.Fatalf("engine %s: %d jobs completed, want %d", name, len(bare), smallEngine.jobs)
			}
			if !reflect.DeepEqual(bare, wrapped) {
				t.Errorf("engine %s probed=%v: wrapped per-job results differ from bare", name, probed)
			}
			if !reflect.DeepEqual(bareCounts, wrappedCounts) {
				t.Errorf("engine %s probed=%v: wrapped counts %+v, bare %+v", name, probed, wrappedCounts, bareCounts)
			}
			if lt := attribute(tr); lt.calls[spanAssign] == 0 || lt.calls[spanQuantize] != lt.calls[spanAssign] {
				t.Errorf("engine %s: %d assign and %d quantize spans, want equal and nonzero",
					name, lt.calls[spanAssign], lt.calls[spanQuantize])
			}
		}
	}

	specs, err := trace.Facebook(smallFluid.traceConfig(smallFluid.seeds[0]))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallFluid.config(trace.DefaultFacebookConfig().Capacity)
	for _, name := range policyOrder {
		pol, err := newPolicy(name, true)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := fluid.Run(specs, pol, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pol, err = newPolicy(name, true); err != nil {
			t.Fatal(err)
		}
		tr := newTestTracer(t)
		if pol, err = timePolicy(pol, instruments{t: tr}, false); err != nil {
			t.Fatal(err)
		}
		run := tr.beginRun(name)
		wrapped, err := fluid.Run(specs, pol, cfg)
		tr.end(run)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare.Jobs, wrapped.Jobs) {
			t.Errorf("fluid %s: wrapped per-job results differ from bare", name)
		}
		if lt := attribute(tr); lt.calls[spanAssign] == 0 {
			t.Errorf("fluid %s: no assign spans recorded", name)
		}
	}
}

// sweepOutcomes sets up and runs one sweep of s, its sources and policies
// reporting to in.
func sweepOutcomes(t *testing.T, s system, in instruments, probed bool, workers int) []outcome {
	t.Helper()
	sw, err := s.setup(in, probed)
	if err != nil {
		t.Fatal(err)
	}
	m := newMeter()
	m.heap = in.heap
	var out []outcome
	for i := 0; i < sw.size(); i++ {
		o, err := sw.run(i, workers, m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o)
	}
	return out
}

// TestSweepVariantsMatch pins that none of the ways a sweep is run changes
// the simulated results: traced (spans plus the quantizer replay) or not,
// with the memory pass's heap samples or not, with engine-observed's sinks
// or not, and with one or two shard workers.
func TestSweepVariantsMatch(t *testing.T) {
	for _, s := range []system{smallEngine, smallFluid} {
		want := sweepOutcomes(t, s, instruments{}, false, 1)
		variants := map[string]func() []outcome{
			"traced":    func() []outcome { return sweepOutcomes(t, s, instruments{t: newTestTracer(t)}, false, 1) },
			"heap":      func() []outcome { return sweepOutcomes(t, s, instruments{heap: newHeapProbe(16)}, true, 1) },
			"probed":    func() []outcome { return sweepOutcomes(t, s, instruments{}, true, 2) },
			"workers=2": func() []outcome { return sweepOutcomes(t, s, instruments{}, false, 2) },
		}
		for name, run := range variants {
			if got := run(); !reflect.DeepEqual(got, want) {
				t.Errorf("%T %s: outcomes %+v, want %+v", s, name, got, want)
			}
		}
	}
}

// TestDigestRepeats runs the reference checks and two sweeps of each system
// in one invocation: the reference passes its checks and every policy run of
// both sweeps reproduces its digest.
func TestDigestRepeats(t *testing.T) {
	for _, s := range []system{smallEngine, smallFluid} {
		var out bytes.Buffer
		b := &bench{w: workload{name: "test"}, sys: s, out: &out}
		if _, err := b.verify(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := b.sweep(&variant{workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if b.failed != 0 || b.attempted != 2*len(b.expected) || strings.Contains(out.String(), "FAILED") {
			t.Errorf("%T: %d of %d runs failed:\n%s", s, b.failed, b.attempted, out.String())
		}
	}
}

// TestCheckFailsWrongMean pins that a reference whose mean differs from the
// experiments runner's fails its policy's runs.
func TestCheckFailsWrongMean(t *testing.T) {
	out := []outcome{{seed: 1, policy: "FIFO", jobs: 5, mean: 2}, {seed: 1, policy: "LAS", jobs: 4, mean: 1}}
	checkOutcomes(out, 5, map[string]float64{"FIFO": 2.0000000000000004, "LAS": 1})
	if out[0].problem == "" || out[1].problem == "" {
		t.Errorf("problems %q, %q: want both runs failed", out[0].problem, out[1].problem)
	}
}

func TestAttributeSelfTimes(t *testing.T) {
	tr := &tracer{spans: make([]span, 0, 8), cur: -1}
	tr.runs = []string{"FIFO"}
	// policy run [0,100) holding two shards [0,60) and [60,100); shard 0
	// holds an assign [10,30) and a next [40,45); shard 1 a quantize [70,80).
	tr.spans = append(tr.spans,
		span{start: 0, end: 100, parent: -1, name: spanPolicyRun},
		span{start: 0, end: 60, parent: 0, name: spanShard},
		span{start: 10, end: 30, parent: 1, name: spanAssign},
		span{start: 40, end: 45, parent: 1, name: spanNext},
		span{start: 60, end: 100, parent: 0, name: spanShard},
		span{start: 70, end: 80, parent: 4, name: spanQuantize},
	)
	lt := attribute(tr)
	want := map[spanName]time.Duration{spanPolicyRun: 0, spanShard: 65, spanAssign: 20, spanNext: 5, spanQuantize: 10}
	for name, d := range want {
		if lt.self[name] != d {
			t.Errorf("self[%d] = %d, want %d", name, lt.self[name], d)
		}
	}
	if lt.wall != 100 || lt.byPolicy["FIFO"] != 20 {
		t.Errorf("wall %d, FIFO assign %d; want 100, 20", lt.wall, lt.byPolicy["FIFO"])
	}
	// Shards of 60 and 40: max over mean is 60/50.
	if m := lt.metrics(true); m["substrate.shard_imbalance"] != 1.2 {
		t.Errorf("shard imbalance %v, want 1.2", m["substrate.shard_imbalance"])
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "fluid-trace", "--seed", "1", "--seconds", "0", "--trace", "0"},
		{"--workload", "fluid-trace", "--seed", "1", "--seconds", "1", "--trace", "2"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code == 0 || strings.Contains(stdout.String(), "{") {
			t.Errorf("%v: exit %d, output %q; want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}

// TestMetricsMatchBenchmarkJSON runs every workload end to end and traced on
// small inputs and checks that each prints exactly the metrics, with the
// units, that BENCHMARK.json declares, and no failed operation.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range workloads {
		s := system(smallFluid)
		if w.engine {
			s = smallEngine
		}
		for _, traced := range []bool{false, true} {
			b := &bench{w: w, sys: s, out: io.Discard}
			var res result
			want := units(decl.EndToEnd)
			if traced {
				res, err = b.traced(time.Nanosecond, "")
				want = units(decl.PerLayer)
			} else {
				res, err = b.endToEnd(time.Nanosecond)
			}
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[string]string)
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}
