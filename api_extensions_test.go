package lasmq_test

import (
	"context"
	"math"
	"testing"
	"time"

	"lasmq"
)

func TestPublicAPIDFS(t *testing.T) {
	store, err := lasmq.NewDFS(lasmq.DefaultDFSConfig())
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := store.AddFile("/data/x", 300<<20) // 300 MB -> 3 blocks
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(blocks))
	}
	loc, err := lasmq.LocalityFromDFS(store, "/data/x", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(loc.PreferredNodes) != 3 || loc.RemotePenalty != 2 {
		t.Errorf("locality = %+v", loc)
	}
}

func TestPublicAPIGeo(t *testing.T) {
	specs := []lasmq.GeoJob{
		{ID: 1, Name: "q", Priority: 1, Tasks: []lasmq.GeoTask{
			{Compute: 5, DataSite: 0, DataSize: 1},
			{Compute: 5, DataSite: 1, DataSize: 1},
		}},
	}
	cfg := lasmq.DefaultGeoConfig()
	cfg.BandwidthSigma = 0
	res, err := lasmq.RunGeo(specs, lasmq.NewFair(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Jobs[0].ResponseTime-5) > 1e-9 {
		t.Errorf("response = %v, want 5 (both tasks local and parallel)", res.Jobs[0].ResponseTime)
	}
	if res.Placement != lasmq.GeoPlaceLocalityAware {
		t.Errorf("placement = %v", res.Placement)
	}
}

func TestPublicAPIMapReduce(t *testing.T) {
	jobs := []lasmq.MapReduceJob{{
		ID: 1, Name: "wc", Priority: 1,
		Splits:   lasmq.SynthesizeText(4, 50, 10, 1),
		Reducers: 2,
		Map:      lasmq.WordCountMap,
		Reduce:   lasmq.WordCountReduce,
	}}
	mq, err := lasmq.NewScheduler(lasmq.DefaultSchedulerConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := lasmq.RunMapReduce(lasmq.DefaultMapReduceClusterConfig(), mq, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs[1]) == 0 {
		t.Error("empty word-count output")
	}
}

func TestPublicAPIAdaptiveScheduler(t *testing.T) {
	s, err := lasmq.NewAdaptiveScheduler(lasmq.DefaultAdaptiveSchedulerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "LAS_MQ_ADAPTIVE" {
		t.Errorf("Name = %q", s.Name())
	}
	if len(s.Thresholds()) != 9 {
		t.Errorf("thresholds = %v", s.Thresholds())
	}
}

func TestPublicAPILiveCluster(t *testing.T) {
	cfg := lasmq.DefaultLiveClusterConfig()
	cfg.Nodes = 2
	cfg.ContainersPerNode = 4
	cfg.TimeScale = time.Millisecond
	cfg.HeartbeatInterval = 2 * time.Millisecond

	mq, err := lasmq.NewScheduler(lasmq.DefaultSchedulerConfig())
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := lasmq.NewLiveCluster(cfg, mq)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Shutdown()

	spec := lasmq.JobSpec{
		ID: 1, Name: "live", Priority: 1,
		Stages: []lasmq.StageSpec{{Name: "map", Tasks: []lasmq.TaskSpec{
			{Duration: 5, Containers: 1}, {Duration: 5, Containers: 1},
		}}},
	}
	if err := cluster.Submit(spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTimeout(t)
	defer cancel()
	reports, err := cluster.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Response < 5 {
		t.Errorf("reports = %+v", reports)
	}
}

func contextWithTimeout(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 30*time.Second)
}

// plainPolicy is a Scheduler written against the public API alone: it
// implements only Assign, building its result with NewAssignment, so the
// simulators reach it through their plain (unbuffered) dispatch.
type plainPolicy struct{ inner lasmq.Scheduler }

func (p plainPolicy) Name() string { return "plain " + p.inner.Name() }

func (p plainPolicy) Assign(now, capacity float64, jobs []lasmq.JobView) lasmq.Assignment {
	out := lasmq.NewAssignment(jobs)
	copy(out.Shares(), p.inner.Assign(now, capacity, jobs).Shares())
	return out
}

func TestPublicAPIExternalScheduler(t *testing.T) {
	tcfg := lasmq.DefaultFacebookTraceConfig()
	tcfg.Jobs = 200
	specs, err := lasmq.FacebookTrace(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := lasmq.DefaultFluidConfig()
	fcfg.Capacity = tcfg.Capacity
	want, err := lasmq.RunTrace(specs, lasmq.NewFair(), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lasmq.RunTrace(specs, plainPolicy{lasmq.NewFair()}, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.MeanResponseTime() != want.MeanResponseTime() {
		t.Fatalf("external scheduler mean %v, built-in %v", got.MeanResponseTime(), want.MeanResponseTime())
	}
}
