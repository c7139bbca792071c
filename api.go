package lasmq

import (
	"io"

	"lasmq/internal/analytic"
	"lasmq/internal/core"
	"lasmq/internal/dfs"
	"lasmq/internal/dist"
	"lasmq/internal/engine"
	"lasmq/internal/experiments"
	"lasmq/internal/fluid"
	"lasmq/internal/geo"
	"lasmq/internal/job"
	"lasmq/internal/mapreduce"
	"lasmq/internal/runner"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
	"lasmq/internal/trace"
	"lasmq/internal/workload"
	"lasmq/internal/yarn"
)

// Scheduling policies.
type (
	// Scheduler is the policy interface shared by both simulators: it
	// observes runnable-job snapshots and returns container shares.
	Scheduler = sched.Scheduler
	// JobView is the scheduler-facing snapshot of one runnable job.
	JobView = sched.JobView
	// Assignment is one round's granted container shares, slot-aligned with
	// the job views it is bound to: share i belongs to view i.
	Assignment = sched.Assignment
	// SchedulerConfig configures the LAS_MQ policy (queues, thresholds,
	// cross-queue weights, stage awareness, in-queue ordering).
	SchedulerConfig = core.Config
	// LASMQ is the paper's multilevel-queue scheduler.
	LASMQ = core.LASMQ
)

// NewAssignment returns an all-zero Assignment bound to jobs, for a
// Scheduler implemented outside this module to fill and return from Assign.
func NewAssignment(jobs []JobView) Assignment { return sched.NewAssignment(jobs) }

// NewScheduler returns a fresh LAS_MQ scheduler. Schedulers are stateful;
// use one instance per simulation run.
func NewScheduler(cfg SchedulerConfig) (*LASMQ, error) { return core.New(cfg) }

// DefaultSchedulerConfig returns the paper's testbed configuration
// (k = 10 queues, first threshold 100 container-seconds, step 10).
func DefaultSchedulerConfig() SchedulerConfig { return core.DefaultConfig() }

// Extensions beyond the paper (its Discussion section's future work).
type (
	// AdaptiveSchedulerConfig configures the adaptive-threshold LAS_MQ
	// variant, which refits its threshold ladder online from completed-job
	// sizes.
	AdaptiveSchedulerConfig = core.AdaptiveConfig
	// AdaptiveLASMQ is the adaptive-threshold scheduler.
	AdaptiveLASMQ = core.Adaptive
	// Tradeoff blends two policies' allocations convexly (e.g. LAS_MQ with
	// Fair) to trade mean response time for fairness.
	Tradeoff = sched.Blend
)

// NewAdaptiveScheduler returns the adaptive-threshold LAS_MQ variant.
func NewAdaptiveScheduler(cfg AdaptiveSchedulerConfig) (*AdaptiveLASMQ, error) {
	return core.NewAdaptive(cfg)
}

// DefaultAdaptiveSchedulerConfig returns the default adaptive configuration.
func DefaultAdaptiveSchedulerConfig() AdaptiveSchedulerConfig {
	return core.DefaultAdaptiveConfig()
}

// NewTradeoff returns a scheduler allocating
// (1-theta)*primary + theta*secondary; with primary LAS_MQ and secondary
// Fair, theta tunes the fairness/response-time tradeoff.
func NewTradeoff(primary, secondary Scheduler, theta float64) (*Tradeoff, error) {
	return sched.NewBlend(primary, secondary, theta)
}

// NewFIFO returns the FIFO baseline: strict admission-order service.
func NewFIFO() Scheduler { return sched.NewFIFO() }

// NewFair returns the Fair baseline: priority-weighted max-min sharing.
func NewFair() Scheduler { return sched.NewFair() }

// NewLAS returns the least-attained-service baseline.
func NewLAS() Scheduler { return sched.NewLAS() }

// NewSJF returns the shortest-job-first baseline (requires size hints).
func NewSJF() Scheduler { return sched.NewSJF() }

// NewSRTF returns the shortest-remaining-time-first baseline (requires size
// hints).
func NewSRTF() Scheduler { return sched.NewSRTF() }

// NewPS returns the processor-sharing baseline: equal fluid shares across all
// runnable jobs — the oblivious sharing reference the price-of-obliviousness
// experiment normalizes against.
func NewPS() Scheduler { return sched.NewPS() }

// NewSRPT returns the exact shortest-remaining-processing-time baseline: the
// clairvoyant optimum, reading exact remaining service rather than the
// possibly-perturbed size hints SRTF uses.
func NewSRPT() Scheduler { return sched.NewSRPT() }

// ServiceDist is an analytic service-time distribution — tail, mean, and
// upper support — the prior knowledge the Gittins baseline schedules from.
type ServiceDist = dist.Service

// NewGittins returns the Gittins-index baseline: the optimal non-anticipating
// policy given the service distribution of job sizes. A nil service falls
// back to the unit-mean exponential, whose constant index degrades the policy
// to FIFO (which is optimal there).
func NewGittins(service ServiceDist) Scheduler { return sched.NewGittins(service) }

// Task-level cluster simulation (the YARN substrate).
type (
	// JobSpec describes a multi-stage job for the cluster simulator.
	JobSpec = job.Spec
	// StageSpec is one stage (map or reduce) of a JobSpec.
	StageSpec = job.StageSpec
	// TaskSpec is one task of a stage.
	TaskSpec = job.TaskSpec
	// ClusterConfig configures the cluster simulator (containers, admission
	// limit, failure/straggler injection, speculation).
	ClusterConfig = engine.Config
	// ClusterResult reports a cluster simulation run.
	ClusterResult = engine.Result
	// ClusterJobResult reports one finished job of a cluster run.
	ClusterJobResult = engine.JobResult
	// SimResult is the scheduling-substrate kernel's result accumulator.
	// Both ClusterResult and FluidResult embed it, so the response-time and
	// slowdown statistics (MeanResponseTime, ResponseTimes, Slowdowns,
	// BinMeans) read identically across the simulators; code can accept a
	// *SimResult to work with either.
	SimResult = substrate.Result
)

// RunCluster simulates the workload on the task-level cluster simulator.
func RunCluster(specs []JobSpec, policy Scheduler, cfg ClusterConfig) (*ClusterResult, error) {
	return engine.Run(specs, policy, cfg)
}

// RunIsolated returns a job's completion time alone on the cluster — the
// denominator of the paper's slowdown metric.
func RunIsolated(spec JobSpec, policy Scheduler, cfg ClusterConfig) (float64, error) {
	return engine.RunIsolated(spec, policy, cfg)
}

// DefaultClusterConfig returns the paper's testbed: 120 containers and an
// admission limit of 30 concurrently running jobs.
func DefaultClusterConfig() ClusterConfig { return engine.DefaultConfig() }

// Fluid trace simulation.
type (
	// TraceJob describes a malleable trace job for the fluid simulator.
	TraceJob = fluid.JobSpec
	// FluidConfig configures the fluid simulator (capacity, demand
	// granularity, admission limit).
	FluidConfig = fluid.Config
	// FluidResult reports a fluid simulation run.
	FluidResult = fluid.Result
	// FluidJobResult reports one finished trace job.
	FluidJobResult = fluid.JobResult
)

// RunTrace simulates a trace on the event-driven fluid simulator.
func RunTrace(specs []TraceJob, policy Scheduler, cfg FluidConfig) (*FluidResult, error) {
	return fluid.Run(specs, policy, cfg)
}

// DefaultFluidConfig returns the heavy-tailed trace simulation configuration.
func DefaultFluidConfig() FluidConfig { return fluid.DefaultConfig() }

// Geo-distributed analytics (the paper's third future-work direction).
type (
	// GeoConfig describes a multi-site deployment with time-varying
	// inter-site bandwidth.
	GeoConfig = geo.Config
	// GeoJob is a geo-analytics query: tasks over site-resident data.
	GeoJob = geo.JobSpec
	// GeoTask is one task of a GeoJob.
	GeoTask = geo.TaskSpec
	// GeoResult reports a geo simulation run.
	GeoResult = geo.Result
	// GeoPlacement selects the task placement policy.
	GeoPlacement = geo.PlacementPolicy
)

// Geo placement policies.
const (
	// GeoPlaceLocalityAware runs tasks at their data's site when possible,
	// spilling to the fastest link otherwise.
	GeoPlaceLocalityAware = geo.PlaceLocalityAware
	// GeoPlaceBlind ignores data locality (the decoupled strawman).
	GeoPlaceBlind = geo.PlaceBlind
)

// RunGeo simulates a geo-distributed workload: job ordering from the policy,
// task placement from cfg.Placement.
func RunGeo(specs []GeoJob, policy Scheduler, cfg GeoConfig) (*GeoResult, error) {
	return geo.Run(specs, policy, cfg)
}

// DefaultGeoConfig returns three 20-container sites with several-fold
// bandwidth variability.
func DefaultGeoConfig() GeoConfig { return geo.DefaultConfig() }

// Live mini-YARN cluster (a concurrent resource manager, not a simulation).
type (
	// LiveClusterConfig configures the mini-YARN cluster (nodes, containers
	// per node, admission limit, time scale).
	LiveClusterConfig = yarn.Config
	// LiveCluster is a running cluster: ResourceManager plus one NodeManager
	// goroutine per node, executing task attempts in scaled real time.
	LiveCluster = yarn.Cluster
	// LiveJobReport describes one application completed on a LiveCluster.
	LiveJobReport = yarn.JobReport
)

// NewLiveCluster builds a mini-YARN cluster around a scheduling policy.
// Call Start, Submit jobs, then Drain (and Shutdown when done).
func NewLiveCluster(cfg LiveClusterConfig, policy Scheduler) (*LiveCluster, error) {
	return yarn.New(cfg, policy)
}

// DefaultLiveClusterConfig returns a 4-node, 120-container cluster at
// millisecond time scale.
func DefaultLiveClusterConfig() LiveClusterConfig { return yarn.DefaultConfig() }

// HDFS-like block storage and data locality.
type (
	// DFSConfig describes the block store (block size, replication).
	DFSConfig = dfs.Config
	// DFSStore is the namenode: file -> block -> replica metadata.
	DFSStore = dfs.Store
	// DFSBlock is one replicated block of a file.
	DFSBlock = dfs.Block
	// Locality carries per-map-task block locations for the live cluster.
	Locality = yarn.Locality
)

// NewDFS returns an empty block store.
func NewDFS(cfg DFSConfig) (*DFSStore, error) { return dfs.New(cfg) }

// DefaultDFSConfig mirrors the paper's HDFS settings: 128 MB blocks,
// replication factor 2, four nodes.
func DefaultDFSConfig() DFSConfig { return dfs.DefaultConfig() }

// LocalityFromDFS derives a job's map-task block locations from a store, for
// LiveCluster.SubmitWithLocality.
func LocalityFromDFS(store *DFSStore, file string, remotePenalty float64) (Locality, error) {
	return yarn.LocalityFromDFS(store, file, remotePenalty)
}

// MapReduce: a minimal framework running real computation on the mini-YARN
// cluster, scheduled by any policy.
type (
	// MapReduceJob is one MapReduce job (splits, mapper, reducer).
	MapReduceJob = mapreduce.Job
	// MapReduceMapper processes one input split.
	MapReduceMapper = mapreduce.Mapper
	// MapReduceReducer folds one key's values.
	MapReduceReducer = mapreduce.Reducer
	// MapReduceOutput is a job's final key -> value mapping.
	MapReduceOutput = mapreduce.Output
	// MapReduceResult carries outputs plus cluster job reports.
	MapReduceResult = mapreduce.Result
)

// RunMapReduce executes MapReduce jobs concurrently on a dedicated mini-YARN
// cluster under the given scheduling policy.
func RunMapReduce(cfg LiveClusterConfig, policy Scheduler, jobs []MapReduceJob) (*MapReduceResult, error) {
	return mapreduce.Run(cfg, policy, jobs)
}

// DefaultMapReduceClusterConfig returns a cluster configuration tuned for
// real-work MapReduce jobs.
func DefaultMapReduceClusterConfig() LiveClusterConfig { return mapreduce.DefaultClusterConfig() }

// Built-in MapReduce functions mirroring the paper's benchmarks.
var (
	// WordCountMap emits (word, "1") per word.
	WordCountMap = mapreduce.WordCountMap
	// WordCountReduce sums per-word counts.
	WordCountReduce MapReduceReducer = mapreduce.WordCountReduce
	// InvertedIndexMap emits (word, docID) pairs.
	InvertedIndexMap = mapreduce.InvertedIndexMap
	// InvertedIndexReduce joins a word's document IDs.
	InvertedIndexReduce MapReduceReducer = mapreduce.InvertedIndexReduce
	// GrepMap builds a mapper emitting lines containing a pattern.
	GrepMap = mapreduce.GrepMap
	// CountReduce counts a key's values.
	CountReduce MapReduceReducer = mapreduce.CountReduce
	// SynthesizeText builds deterministic pseudo-text splits.
	SynthesizeText = mapreduce.SynthesizeText
)

// Workload and trace synthesis.
type (
	// WorkloadConfig controls Table I workload generation.
	WorkloadConfig = workload.Config
	// WorkloadJobType is one row of the paper's Table I.
	WorkloadJobType = workload.JobType
	// FacebookTraceConfig controls synthesis of the heavy-tailed trace.
	FacebookTraceConfig = trace.FacebookConfig
)

// GenerateWorkload builds the paper's 100-job Table I workload with Poisson
// arrivals.
func GenerateWorkload(cfg WorkloadConfig) ([]JobSpec, error) { return workload.Generate(cfg) }

// DefaultWorkloadConfig returns the Fig. 5 workload configuration
// (80-second mean arrival interval).
func DefaultWorkloadConfig() WorkloadConfig { return workload.DefaultConfig() }

// TableI returns the paper's workload composition.
func TableI() []WorkloadJobType { return workload.TableI() }

// FacebookTrace synthesizes the heavy-tailed Facebook-2010-like trace.
func FacebookTrace(cfg FacebookTraceConfig) ([]TraceJob, error) { return trace.Facebook(cfg) }

// DefaultFacebookTraceConfig returns the paper's trace parameters
// (24,443 jobs at load 0.9, mean normalized size 20).
func DefaultFacebookTraceConfig() FacebookTraceConfig { return trace.DefaultFacebookConfig() }

// UniformTrace builds the paper's light-tailed workload: n identical jobs
// submitted as a batch.
func UniformTrace(n int, size float64) ([]TraceJob, error) { return trace.Uniform(n, size, 0) }

// WriteTraceCSV serializes a trace in the CSV format the CLIs replay
// (header: id,arrival,size,width,priority).
func WriteTraceCSV(w io.Writer, specs []TraceJob) error { return trace.WriteCSV(w, specs) }

// ReadTraceCSV parses a trace written by WriteTraceCSV.
func ReadTraceCSV(r io.Reader) ([]TraceJob, error) { return trace.ReadCSV(r) }

// Experiments: one runner per paper table/figure (see EXPERIMENTS.md).
type (
	// ExperimentOptions tune experiment scale and seeding.
	ExperimentOptions = experiments.Options
)

// Replicated experiment runs (the parallel multi-seed replication engine).
type (
	// ReplicationOptions tune a replicated run: seed count, base seed,
	// worker-pool size, and the content-addressed result cache directory.
	ReplicationOptions = runner.Options
	// ReplicationReport is a full replicated run: per-experiment aggregates
	// plus cache hit/miss counters.
	ReplicationReport = runner.Report
	// ReplicationAggregate is one experiment merged across seeds.
	ReplicationAggregate = runner.Aggregate
	// ReplicationCell is one metric cell's cross-seed statistics
	// (mean ± 95 % CI, per-seed spread).
	ReplicationCell = runner.AggregateCell
	// RegisteredExperiment is one entry of the replication table: a pure
	// func(seed) producing a metric-cell sample.
	RegisteredExperiment = runner.Experiment
	// ExperimentSample is one experiment's result at one seed.
	ExperimentSample = runner.Sample
	// MetricCell is one scalar metric of a sample.
	MetricCell = runner.Cell
)

// ExperimentRegistry returns every paper experiment as a replication-table
// entry at the given scale.
func ExperimentRegistry(opts ExperimentOptions) []RegisteredExperiment {
	return experiments.Registry(opts)
}

// ExperimentNames lists the registered experiment names in reporting order.
func ExperimentNames() []string { return experiments.RegistryNames() }

// RunReplicated fans the named experiments (all when names is empty) out
// over ropts.Seeds seeds on a bounded worker pool, reusing cached cells when
// ropts.CacheDir is set, and returns deterministic mean ± 95 % CI aggregates.
func RunReplicated(opts ExperimentOptions, ropts ReplicationOptions, names ...string) (*ReplicationReport, error) {
	exps, err := experiments.SelectRegistry(opts, names...)
	if err != nil {
		return nil, err
	}
	return runner.Run(exps, ropts)
}

// RunExperiments is the generic entry point for caller-supplied experiment
// tables (anything expressible as a pure func(seed) sample).
func RunExperiments(exps []RegisteredExperiment, ropts ReplicationOptions) (*ReplicationReport, error) {
	return runner.Run(exps, ropts)
}

// Experiment runners re-exported from the harness.
var (
	// Fig1 reproduces the motivating example (LAS vs. a 2-level queue).
	Fig1 = experiments.Fig1
	// Fig3 reproduces the design-option ablation.
	Fig3 = experiments.Fig3
	// Fig5 reproduces the 80-second-interval testbed experiment.
	Fig5 = experiments.Fig5
	// Fig6 reproduces the 50-second-interval (higher-load) experiment.
	Fig6 = experiments.Fig6
	// Fig7HeavyTailed reproduces the heavy-tailed trace simulation.
	Fig7HeavyTailed = experiments.Fig7HeavyTailed
	// Fig7Uniform reproduces the uniform-workload simulation.
	Fig7Uniform = experiments.Fig7Uniform
	// Fig8Queues reproduces the number-of-queues sensitivity sweep.
	Fig8Queues = experiments.Fig8Queues
	// Fig8Thresholds reproduces the first-threshold sensitivity sweep.
	Fig8Thresholds = experiments.Fig8Thresholds
	// PriceOfObliviousness runs the information-hierarchy sweep: SRPT,
	// Gittins, LAS_MQ, LAS, PS and FIFO on the congested Table-I mix.
	PriceOfObliviousness = experiments.PriceOfObliviousness
)

// Analytic queueing baselines (see DESIGN.md, "Analytic cross-check"): the
// closed forms and the numeric M/G/1 evaluator that the crosscheck test
// family validates both simulators against.
type (
	// MG1 is the numeric M/G/1 evaluator: mean response time under FCFS, PS,
	// SRPT and LAS for an arbitrary service distribution.
	MG1 = analytic.MG1
)

// NewMG1 builds an M/G/1 evaluator at arrival rate lambda for the service
// distribution (points <= 0 selects the default grid resolution).
func NewMG1(lambda float64, service ServiceDist, points int) (*MG1, error) {
	return analytic.NewMG1(lambda, service, points)
}

// Closed-form M/M/1 mean response times.
var (
	// MM1FCFS is the M/M/1 FCFS mean response time, 1/(mu-lambda).
	MM1FCFS = analytic.MM1FCFS
	// MM1PS is the M/M/1 processor-sharing mean response time.
	MM1PS = analytic.MM1PS
	// MM1LAS is the M/M/1 least-attained-service mean response time.
	MM1LAS = analytic.MM1LAS
	// MM1SRPT is the M/M/1 SRPT mean response time (numeric).
	MM1SRPT = analytic.MM1SRPT
)
