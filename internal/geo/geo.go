// Package geo extends the cluster simulator to geo-distributed analytics —
// the paper's third future-work direction: "how to design the scheduling
// algorithm in cases with low and diverse network bandwidths like
// geo-distributed big data processing", where "the network transfer times
// could be comparable or even larger than the CPU times" and scheduling must
// couple compute (containers) with network resources.
//
// The model follows the geo-analytics systems the paper cites (WANalytics,
// Iridium, Flutter): a query's tasks each consume data resident at one of
// several sites. Running a task at its data's site costs only compute; running
// it elsewhere first pulls the data over an inter-site link whose bandwidth
// varies over time (the paper quotes 95th-percentile capacities several times
// the 5th percentile within 35 hours). Job ordering is delegated to any
// sched.Scheduler (LAS_MQ or a baseline); task placement is a separate,
// pluggable policy, so the experiments can separate the two effects.
package geo

import (
	"errors"
	"fmt"
	"math/rand"

	"lasmq/internal/dist"
	"sort"

	"lasmq/internal/eventq"
	"lasmq/internal/sched"
)

// PlacementPolicy decides where a task runs.
type PlacementPolicy int

const (
	// PlaceLocalityAware prefers the task's data site; if it has no free
	// containers, it picks the site with the fastest current transfer
	// (bandwidth-aware spillover).
	PlaceLocalityAware PlacementPolicy = iota + 1
	// PlaceBlind picks the first site with a free container, ignoring data
	// location — the strawman that decouples compute from the network.
	PlaceBlind
)

// String implements fmt.Stringer.
func (p PlacementPolicy) String() string {
	switch p {
	case PlaceLocalityAware:
		return "locality-aware"
	case PlaceBlind:
		return "blind"
	default:
		return fmt.Sprintf("PlacementPolicy(%d)", int(p))
	}
}

// TaskSpec is one geo-analytics task.
type TaskSpec struct {
	// Compute is the task's computation time in seconds once its data is
	// local.
	Compute float64
	// DataSite is the index of the site holding the task's input.
	DataSite int
	// DataSize is the input volume in arbitrary data units; transferring it
	// across sites takes DataSize / bandwidth seconds.
	DataSize float64
}

// JobSpec is a geo-analytics job: a bag of tasks over distributed data
// (single-stage, as in the geo-analytics query systems the paper cites).
type JobSpec struct {
	ID       int
	Name     string
	Arrival  float64
	Priority int
	Tasks    []TaskSpec
}

// TotalCompute returns the job's total computation in container-seconds.
func (j *JobSpec) TotalCompute() float64 {
	var total float64
	for _, t := range j.Tasks {
		total += t.Compute
	}
	return total
}

// Config describes the geo-distributed deployment.
type Config struct {
	// SiteContainers is each site's container capacity.
	SiteContainers []int
	// BaseBandwidth is the mean inter-site bandwidth in data units per
	// second (all ordered site pairs share the mean; instantaneous values
	// diverge per link).
	BaseBandwidth float64
	// BandwidthSigma is the lognormal variability of link bandwidth; 0 means
	// constant links. The paper quotes several-fold 95th/5th-percentile
	// ratios, i.e. sigma around 0.5-0.8.
	BandwidthSigma float64
	// ResampleInterval is how often each link's bandwidth changes (seconds).
	ResampleInterval float64
	// Placement selects the task placement policy.
	Placement PlacementPolicy
	// Seed drives bandwidth sampling.
	Seed int64
}

// DefaultConfig returns three 20-container sites with several-fold bandwidth
// variability and locality-aware placement.
func DefaultConfig() Config {
	return Config{
		SiteContainers:   []int{20, 20, 20},
		BaseBandwidth:    2,
		BandwidthSigma:   0.6,
		ResampleInterval: 60,
		Placement:        PlaceLocalityAware,
	}
}

func (c *Config) validate() error {
	if len(c.SiteContainers) == 0 {
		return errors.New("geo: need at least one site")
	}
	for i, n := range c.SiteContainers {
		if n <= 0 {
			return fmt.Errorf("geo: site %d has non-positive capacity %d", i, n)
		}
	}
	if c.BaseBandwidth <= 0 {
		return fmt.Errorf("geo: base bandwidth must be positive, got %v", c.BaseBandwidth)
	}
	if c.BandwidthSigma < 0 {
		return fmt.Errorf("geo: bandwidth sigma must be >= 0, got %v", c.BandwidthSigma)
	}
	if c.ResampleInterval <= 0 {
		return fmt.Errorf("geo: resample interval must be positive, got %v", c.ResampleInterval)
	}
	switch c.Placement {
	case PlaceLocalityAware, PlaceBlind:
	default:
		return fmt.Errorf("geo: unknown placement policy %v", c.Placement)
	}
	return nil
}

// JobResult reports one finished geo job.
type JobResult struct {
	ID           int
	Name         string
	Arrival      float64
	Completed    float64
	ResponseTime float64
	// RemoteTasks counts tasks that ran away from their data.
	RemoteTasks int
	// TransferTime is the total seconds tasks spent pulling remote data.
	TransferTime float64
}

// Result reports a geo simulation run.
type Result struct {
	Scheduler string
	Placement PlacementPolicy
	Jobs      []JobResult
	Makespan  float64
}

// MeanResponseTime returns the average job response time.
func (r *Result) MeanResponseTime() float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	var sum float64
	for i := range r.Jobs {
		sum += r.Jobs[i].ResponseTime
	}
	return sum / float64(len(r.Jobs))
}

// links models time-varying inter-site bandwidth: piecewise constant per
// epoch, resampled lazily per (link, epoch) so runs stay deterministic
// regardless of query order.
type links struct {
	base     float64
	sigma    float64
	interval float64
	seed     int64
	sites    int
	cache    map[int64]float64
}

func newLinks(cfg *Config) *links {
	return &links{
		base:     cfg.BaseBandwidth,
		sigma:    cfg.BandwidthSigma,
		interval: cfg.ResampleInterval,
		seed:     cfg.Seed,
		sites:    len(cfg.SiteContainers),
		cache:    make(map[int64]float64),
	}
}

// bandwidth returns the src->dst bandwidth at time now.
func (l *links) bandwidth(src, dst int, now float64) float64 {
	if src == dst {
		return 0 // unused: local tasks transfer nothing
	}
	if l.sigma == 0 {
		return l.base
	}
	epoch := int64(now / l.interval)
	key := (epoch*int64(l.sites)+int64(src))*int64(l.sites) + int64(dst)
	if bw, ok := l.cache[key]; ok {
		return bw
	}
	// A per-(link, epoch) generator keeps sampling order-independent.
	const mix = int64(-0x61C8864680B583EB) // golden-ratio mixing constant
	r := rand.New(rand.NewSource(l.seed ^ (key * mix)))
	bw := dist.LognormalMean(r, l.base, l.sigma)
	l.cache[key] = bw
	return bw
}

// --- Simulation ---

type geoTask struct {
	spec    TaskSpec
	started bool
	done    bool
}

type geoJob struct {
	spec      JobSpec
	seq       int
	remaining int // tasks not yet completed
	pending   []int
	usage     int
	attained  float64 // container-seconds consumed by finished attempts
	usageW    float64 // sum of start times weighted by containers (1 each)

	remoteTasks  int
	transferTime float64
	tasks        []geoTask
}

type geoView struct {
	j   *geoJob
	now float64
}

var _ sched.JobView = (*geoView)(nil)

func (v *geoView) ID() int           { return v.j.spec.ID }
func (v *geoView) Seq() int          { return v.j.seq }
func (v *geoView) Priority() int     { return v.j.spec.Priority }
func (v *geoView) Attained() float64 { return v.j.attainedAt(v.now) }

// Estimated equals Attained: geo jobs are single-stage bags of tasks.
func (v *geoView) Estimated() float64       { return v.j.attainedAt(v.now) }
func (v *geoView) ReadyDemand() float64     { return float64(len(v.j.pending)) }
func (v *geoView) RemainingDemand() float64 { return float64(v.j.remaining) }
func (v *geoView) SizeHint() float64        { return v.j.spec.TotalCompute() }
func (v *geoView) RemainingSizeHint() float64 {
	rem := v.j.spec.TotalCompute() - v.j.attainedAt(v.now)
	if rem < 0 {
		return 0
	}
	return rem
}

func (j *geoJob) attainedAt(now float64) float64 {
	running := now*float64(j.usage) - j.usageW
	if running < 0 {
		running = 0
	}
	return j.attained + running
}

type geoEvent struct {
	kind  int // 1 arrival, 2 task done
	jobID int
	site  int
	task  int
	start float64
}

// Run simulates the workload; job ordering comes from policy, task placement
// from cfg.Placement.
func Run(specs []JobSpec, policy sched.Scheduler, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, errors.New("geo: nil scheduler")
	}
	sites := len(cfg.SiteContainers)
	seen := make(map[int]bool, len(specs))
	for i := range specs {
		s := &specs[i]
		if len(s.Tasks) == 0 {
			return nil, fmt.Errorf("geo: job %d has no tasks", s.ID)
		}
		if s.Arrival < 0 {
			return nil, fmt.Errorf("geo: job %d has negative arrival", s.ID)
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("geo: duplicate job ID %d", s.ID)
		}
		seen[s.ID] = true
		for ti, t := range s.Tasks {
			if t.Compute <= 0 {
				return nil, fmt.Errorf("geo: job %d task %d has non-positive compute", s.ID, ti)
			}
			if t.DataSite < 0 || t.DataSite >= sites {
				return nil, fmt.Errorf("geo: job %d task %d data site %d out of range", s.ID, ti, t.DataSite)
			}
			if t.DataSize < 0 {
				return nil, fmt.Errorf("geo: job %d task %d has negative data size", s.ID, ti)
			}
		}
	}

	var (
		queue    eventq.Queue[geoEvent]
		jobs     = make(map[int]*geoJob, len(specs))
		order    []int
		now      float64
		nextSeq  int
		freeOn   = append([]int(nil), cfg.SiteContainers...)
		capacity int
		net      = newLinks(&cfg)
		res      = &Result{Scheduler: policy.Name(), Placement: cfg.Placement}
		results  = make(map[int]JobResult, len(specs))
		left     = len(specs)
	)
	for _, n := range cfg.SiteContainers {
		capacity += n
	}
	for i := range specs {
		gj := &geoJob{spec: specs[i], remaining: len(specs[i].Tasks)}
		gj.tasks = make([]geoTask, len(specs[i].Tasks))
		for ti := range specs[i].Tasks {
			gj.tasks[ti] = geoTask{spec: specs[i].Tasks[ti]}
			gj.pending = append(gj.pending, ti)
		}
		jobs[specs[i].ID] = gj
		queue.Push(specs[i].Arrival, geoEvent{kind: 1, jobID: specs[i].ID})
	}

	var quant sched.Quantizer
	schedule := func() {
		views := make([]sched.JobView, 0, len(order))
		demand := make([]float64, 0, len(order))
		slots := make([]*geoJob, 0, len(order))
		for _, id := range order {
			gj := jobs[id]
			if gj.remaining == 0 {
				continue
			}
			v := &geoView{j: gj, now: now}
			views = append(views, v)
			demand = append(demand, v.ReadyDemand())
			slots = append(slots, gj)
		}
		if len(views) == 0 {
			return
		}
		alloc := policy.Assign(now, float64(capacity), views)
		targets := quant.Targets(alloc, demand, capacity)

		launch := func(gj *geoJob) bool {
			if len(gj.pending) == 0 {
				return false
			}
			ti := gj.pending[0]
			task := &gj.tasks[ti]
			site := pickSite(cfg.Placement, task.spec, freeOn, net, now)
			if site < 0 {
				return false
			}
			gj.pending = gj.pending[1:]
			task.started = true
			freeOn[site]--
			gj.usage++
			gj.usageW += now

			duration := task.spec.Compute
			if site != task.spec.DataSite && task.spec.DataSize > 0 {
				transfer := task.spec.DataSize / net.bandwidth(task.spec.DataSite, site, now)
				duration += transfer
				gj.remoteTasks++
				gj.transferTime += transfer
			}
			queue.Push(now+duration, geoEvent{
				kind: 2, jobID: gj.spec.ID, site: site, task: ti, start: now,
			})
			return true
		}

		// Serve the largest allocation deficits first, so freed containers go
		// to the policy's most-preferred jobs (as in the cluster engine).
		type cand struct {
			gj     *geoJob
			target int
		}
		var cands []cand
		for i, gj := range slots {
			if t := targets[i]; t > gj.usage {
				cands = append(cands, cand{gj: gj, target: t})
			}
		}
		sort.SliceStable(cands, func(i, j int) bool {
			di := cands[i].target - cands[i].gj.usage
			dj := cands[j].target - cands[j].gj.usage
			if di != dj {
				return di > dj
			}
			return cands[i].gj.seq < cands[j].gj.seq
		})
		for _, c := range cands {
			for c.gj.usage < c.target {
				if !launch(c.gj) {
					break
				}
			}
		}
		// Work conservation: leftover containers to any pending task.
		progress := true
		for progress {
			progress = false
			for _, id := range order {
				gj := jobs[id]
				if gj.remaining == 0 {
					continue
				}
				if launch(gj) {
					progress = true
				}
			}
		}
	}

	for left > 0 {
		t, ev, ok := queue.Pop()
		if !ok {
			return nil, fmt.Errorf("geo: deadlock at t=%v with %d unfinished jobs", now, left)
		}
		now = t
		switch ev.kind {
		case 1:
			gj := jobs[ev.jobID]
			gj.seq = nextSeq
			nextSeq++
			order = append(order, ev.jobID)
		case 2:
			gj := jobs[ev.jobID]
			task := &gj.tasks[ev.task]
			task.done = true
			freeOn[ev.site]++
			gj.usage--
			gj.usageW -= ev.start
			gj.attained += now - ev.start
			gj.remaining--
			if gj.remaining == 0 {
				left--
				results[gj.spec.ID] = JobResult{
					ID:           gj.spec.ID,
					Name:         gj.spec.Name,
					Arrival:      gj.spec.Arrival,
					Completed:    now,
					ResponseTime: now - gj.spec.Arrival,
					RemoteTasks:  gj.remoteTasks,
					TransferTime: gj.transferTime,
				}
				if now > res.Makespan {
					res.Makespan = now
				}
			}
		}
		schedule()
	}

	for i := range specs {
		res.Jobs = append(res.Jobs, results[specs[i].ID])
	}
	return res, nil
}

// pickSite returns the site to run the task at, or -1 if no site has a free
// container.
func pickSite(policy PlacementPolicy, task TaskSpec, freeOn []int, net *links, now float64) int {
	switch policy {
	case PlaceBlind:
		for site, free := range freeOn {
			if free > 0 {
				return site
			}
		}
		return -1
	default: // PlaceLocalityAware
		if freeOn[task.DataSite] > 0 {
			return task.DataSite
		}
		// Spill to the site with the cheapest transfer right now.
		best, bestTime := -1, 0.0
		for site, free := range freeOn {
			if free <= 0 || site == task.DataSite {
				continue
			}
			transfer := 0.0
			if task.DataSize > 0 {
				transfer = task.DataSize / net.bandwidth(task.DataSite, site, now)
			}
			if best < 0 || transfer < bestTime {
				best, bestTime = site, transfer
			}
		}
		return best
	}
}
