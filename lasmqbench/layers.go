package main

import "time"

// layerTimes attributes one traced sweep's wall time to layers. A span's
// self time is its duration minus the durations of its direct children, so
// the self times of all spans sum to the policy-run spans, the traced wall.
type layerTimes struct {
	wall     time.Duration
	self     [numSpanNames]time.Duration
	calls    [numSpanNames]int
	byPolicy map[string]time.Duration // assign time per policy
	// maxShard and meanShard sum, over policy runs, the longest and the
	// mean shard span of the run.
	maxShard, meanShard time.Duration
	assignJobs          int
}

func attribute(t *tracer) layerTimes {
	lt := layerTimes{byPolicy: make(map[string]time.Duration), assignJobs: t.assignJobs}
	var shards []time.Duration
	flush := func() {
		if len(shards) == 0 {
			return
		}
		var max, sum time.Duration
		for _, d := range shards {
			sum += d
			if d > max {
				max = d
			}
		}
		lt.maxShard += max
		lt.meanShard += sum / time.Duration(len(shards))
		shards = shards[:0]
	}
	for _, s := range t.spans {
		d := time.Duration(s.end - s.start)
		lt.self[s.name] += d
		lt.calls[s.name]++
		if s.parent >= 0 {
			lt.self[t.spans[s.parent].name] -= d
		}
		switch s.name {
		case spanPolicyRun:
			flush()
			lt.wall += d
		case spanShard:
			shards = append(shards, d)
		case spanAssign:
			lt.byPolicy[t.runs[s.run]] += d
		}
	}
	flush()
	return lt
}

// metrics names the per-layer figures of one traced sweep, in host seconds
// unless the name says otherwise. Engine self time is everything inside the
// engine's shards that no child span covers — admission, event queue, the
// engine's own quantization and task bookkeeping — plus RunSharded's fold;
// on fluid the same remainder is the fluid simulator's self time.
func (lt layerTimes) metrics(engineLayer bool) map[string]float64 {
	wall := lt.wall.Seconds()
	share := func(d time.Duration) float64 { return d.Seconds() / wall }
	sched := lt.self[spanAssign] + lt.self[spanObserve] + lt.self[spanObserveHorizon] + lt.self[spanHorizon]
	rest := lt.self[spanPolicyRun] + lt.self[spanShard]
	m := map[string]float64{
		"sched.assign_s":            lt.self[spanAssign].Seconds(),
		"sched.assign_calls":        float64(lt.calls[spanAssign]),
		"sched.share":               share(sched),
		"sched.observe_s":           (lt.self[spanObserve] + lt.self[spanObserveHorizon]).Seconds(),
		"sched.observe_calls":       float64(lt.calls[spanObserve]),
		"sched.horizon_s":           lt.self[spanHorizon].Seconds(),
		"sched.horizon_calls":       float64(lt.calls[spanHorizon]),
		"sched.quantize_s":          lt.self[spanQuantize].Seconds(),
		"sched.quantize_calls":      float64(lt.calls[spanQuantize]),
		"sched.quantize_share":      share(lt.self[spanQuantize]),
		"trace.next_s":              lt.self[spanNext].Seconds(),
		"trace.share":               share(lt.self[spanNext]),
		"workload.stage_s":          lt.self[spanStage].Seconds(),
		"workload.share":            share(lt.self[spanStage]),
		"engine.self_s":             0,
		"engine.share":              0,
		"fluid.self_s":              0,
		"fluid.share":               0,
		"sched.jobs_per_assign":     0,
		"trace.traced_wall_s":       wall,
		"substrate.shard_imbalance": 0,
	}
	for _, p := range policyOrder {
		m["sched.assign_s."+p] = lt.byPolicy[p].Seconds()
	}
	if n := lt.calls[spanAssign]; n > 0 {
		m["sched.jobs_per_assign"] = float64(lt.assignJobs) / float64(n)
	}
	if engineLayer {
		m["engine.self_s"] = rest.Seconds()
		m["engine.share"] = share(rest)
	} else {
		m["fluid.self_s"] = rest.Seconds()
		m["fluid.share"] = share(rest)
	}
	if lt.meanShard > 0 {
		m["substrate.shard_imbalance"] = float64(lt.maxShard) / float64(lt.meanShard)
	}
	return m
}
