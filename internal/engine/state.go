package engine

import (
	"slices"
	"sync"

	"lasmq/internal/eventq"
	"lasmq/internal/job"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// attempt is one execution attempt of a task on physical containers.
// Attempts live in the arena's flat slab and are addressed by index; the
// slab grows during a run, so pointers into it must not be held across a
// launchAttempt call.
type attempt struct {
	id          int
	jobID       int
	stage       int
	task        int
	containers  int
	start       float64
	success     bool // outcome decided at launch (failure injection)
	speculative bool
	ended       bool
	// invDur is 1/duration for primary attempts (progress accounting);
	// zero for speculative copies so they do not double-count progress.
	invDur float64
}

// taskState tracks one task across its attempts.
type taskState struct {
	spec            job.TaskSpec
	ready           bool
	done            bool
	runningAttempts int
	attemptIDs      []int
	// lastStart is the launch time of the task's most recent attempt. The
	// speculation scan reads it instead of indexing the attempt slab, so
	// recycling an ended attempt's slot cannot change what speculate sees.
	lastStart float64
}

// stageState tracks one stage, with O(1) aggregates for service accounting
// and stage progress (the paper's stage-awareness inputs).
type stageState struct {
	spec  *job.StageSpec
	tasks []taskState
	// Ready-task queue: the live entries are readyIdx[readyHead:]. Dequeuing
	// advances readyHead instead of re-slicing so the backing array is not
	// abandoned (and reallocated) on every launch; the queue is reset to its
	// full capacity whenever it drains.
	readyIdx  []int
	readyHead int
	doneTasks int

	// DAG bookkeeping: a stage activates when remainingDeps reaches zero and
	// completes when all its tasks succeed.
	remainingDeps int
	active        bool
	completed     bool
	dependents    []int

	totalContainers int // sum of task container requirements
	doneContainers  int
	readyContainers int

	// Service accounting: finalized covers ended attempts; running attempts
	// contribute containers*(now-start) = now*usage - runStartWeight.
	finalizedService float64
	usage            int
	runStartWeight   float64

	// Progress accounting over primary (non-speculative) running attempts:
	// fraction progressed = (doneTasks + now*invDurSum - startInvDurSum) / n.
	invDurSum      float64
	startInvDurSum float64
}

// pushReady enqueues a ready task index.
func (st *stageState) pushReady(ti int) { st.readyIdx = append(st.readyIdx, ti) }

// readyEmpty reports whether the ready queue has no live entries.
func (st *stageState) readyEmpty() bool { return st.readyHead >= len(st.readyIdx) }

// peekReady returns the next ready task index; the queue must be non-empty.
func (st *stageState) peekReady() int { return st.readyIdx[st.readyHead] }

// popReady dequeues the next entry, reclaiming the backing array once the
// queue drains.
func (st *stageState) popReady() {
	st.readyHead++
	if st.readyHead == len(st.readyIdx) {
		st.readyIdx = st.readyIdx[:0]
		st.readyHead = 0
	}
}

func (st *stageState) attained(now float64) float64 {
	return st.finalizedService + now*float64(st.usage) - st.runStartWeight
}

// progress returns the completed fraction of the stage in [0,1], counting
// completed tasks plus the partial progress of running primary attempts —
// the simulator's analog of the data-processed percentage Hadoop and Spark
// expose. Task-duration skew makes the early progress rate unstable, so the
// projection over-estimates at times, matching the paper's observation that
// over-estimates occur and mostly penalize only the job itself.
func (st *stageState) progress(now float64) float64 {
	p := (float64(st.doneTasks) + now*st.invDurSum - st.startInvDurSum) / float64(len(st.tasks))
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// jobState is the runtime state of one job. Job states live in the arena's
// fixed-length slab, so pointers to them are stable for the whole run.
type jobState struct {
	spec *job.Spec

	arrived     bool
	admitted    bool
	completed   bool
	admittedAt  float64
	completedAt float64
	seq         int // admission sequence

	stages       []stageState
	activeStages []int // indices of unlocked, uncompleted stages, ascending
	doneStages   int

	// Whole-job service accounting, mirroring the per-stage aggregates.
	finalizedService       float64
	usage                  int
	runStartWeight         float64
	completedStagesService float64

	attempts    int
	failures    int
	speculative int

	// pendingEvents counts attempt-completion events still in the queue for
	// this job (each launch pushes exactly one). A streaming run recycles the
	// job's record only when the job has completed AND this reaches zero —
	// killed copies' events still index into the job's task state when they
	// fire, so the record must outlive them.
	pendingEvents int

	// rec points back to the streaming run's pooled record holding this
	// state (nil in materialized runs, whose jobStates live in the arena
	// slab).
	rec *jobRecord

	// view is the job's persistent sched.JobView adapter, re-stamped with the
	// current time each round instead of allocated anew.
	view jobView
}

// activateStage unlocks a stage: its tasks become ready.
func (js *jobState) activateStage(i int) {
	st := &js.stages[i]
	st.active = true
	for ti := range st.tasks {
		st.tasks[ti].ready = true
		st.pushReady(ti)
		st.readyContainers += st.tasks[ti].spec.Containers
	}
	// Keep activeStages sorted ascending so task launch order is stable.
	pos := len(js.activeStages)
	for pos > 0 && js.activeStages[pos-1] > i {
		pos--
	}
	js.activeStages = append(js.activeStages, 0)
	copy(js.activeStages[pos+1:], js.activeStages[pos:])
	js.activeStages[pos] = i
}

// deactivateStage removes a completed stage from the active list.
func (js *jobState) deactivateStage(i int) {
	for k, idx := range js.activeStages {
		if idx == i {
			js.activeStages = append(js.activeStages[:k], js.activeStages[k+1:]...)
			return
		}
	}
}

func (js *jobState) schedulable() bool { return js.admitted && !js.completed }

func (js *jobState) attained(now float64) float64 {
	return js.finalizedService + now*float64(js.usage) - js.runStartWeight
}

// estimated is the stage-aware service estimate: exact service of completed
// stages plus each active stage's attained service divided by its progress
// (paper Sec. III-B). Locked stages contribute nothing — their cost cannot
// be predicted, as the paper's motivation section argues.
func (js *jobState) estimated(now float64) float64 {
	est := js.completedStagesService
	for _, i := range js.activeStages {
		st := &js.stages[i]
		stageAttained := st.attained(now)
		stageEst := stageAttained
		if p := st.progress(now); p > 0 {
			stageEst = stageAttained / p
		}
		est += stageEst
	}
	return est
}

// readyContainersTotal is the number of containers needed by the ready
// (startable) tasks of the active stages.
func (js *jobState) readyContainersTotal() int {
	var total int
	for _, i := range js.activeStages {
		total += js.stages[i].readyContainers
	}
	return total
}

// readyDemand is readyContainersTotal as the scheduler-facing float.
func (js *jobState) readyDemand() float64 {
	return float64(js.readyContainersTotal())
}

// remainingDemand is the number of containers needed by all remaining tasks
// of the job, including running ones (the paper's in-queue ordering key).
func (js *jobState) remainingDemand() float64 {
	var total int
	for i := range js.stages {
		if js.stages[i].completed {
			continue
		}
		total += js.stages[i].totalContainers - js.stages[i].doneContainers
	}
	return float64(total)
}

// jobView adapts jobState to sched.JobView at a fixed instant.
type jobView struct {
	js  *jobState
	now float64
}

var (
	_ sched.JobView    = (*jobView)(nil)
	_ sched.ExactSizer = (*jobView)(nil)
)

func (v *jobView) ID() int            { return v.js.spec.ID }
func (v *jobView) Seq() int           { return v.js.seq }
func (v *jobView) Priority() int      { return v.js.spec.Priority }
func (v *jobView) Attained() float64  { return v.js.attained(v.now) }
func (v *jobView) Estimated() float64 { return v.js.estimated(v.now) }
func (v *jobView) ReadyDemand() float64 {
	return v.js.readyDemand()
}
func (v *jobView) RemainingDemand() float64 {
	return v.js.remainingDemand()
}
func (v *jobView) SizeHint() float64 { return v.js.spec.EffectiveSizeHint() }
func (v *jobView) RemainingSizeHint() float64 {
	rem := v.js.spec.EffectiveSizeHint() - v.js.attained(v.now)
	if rem < 0 {
		return 0
	}
	return rem
}

// ExactRemaining implements sched.ExactSizer: the true remaining service
// (total minus attained), independent of SizeHint perturbation.
func (v *jobView) ExactRemaining() float64 {
	rem := v.js.spec.TotalService() - v.js.attained(v.now)
	if rem < 0 {
		return 0
	}
	return rem
}

// ladderThreshold is the pending-event population at which the engine's
// event queue migrates from the binary heap to the bucketed ladder queue:
// small simulations keep the heap's simplicity, large traces (whose arrival
// events are all pushed up front) get O(1) amortized event handling. A var
// so the equivalence test can force the migration on small workloads.
var ladderThreshold = 4096

// attemptRecycling returns ended attempts' slab slots to a free list as soon
// as their completion event fires, bounding the attempt slab by the peak
// number of in-flight attempts instead of the total launched. A var so the
// differential tests can prove the recycled and append-only slabs produce
// byte-identical results.
var attemptRecycling = true

// eventHeap wraps the two event-queue implementations behind one push/pop
// surface with same-timestamp batching, so a burst of simultaneous
// completions triggers a single scheduling round. It starts on the binary
// heap and migrates — once, irreversibly for the run — to the ladder queue
// when the pending population crosses ladderThreshold.
type eventHeap struct {
	heap      eventq.Queue[event]
	ladder    eventq.Ladder[event]
	useLadder bool
}

func (h *eventHeap) push(t float64, ev event) {
	if !h.useLadder {
		if h.heap.Len() < ladderThreshold {
			h.heap.Push(t, ev)
			return
		}
		h.migrate()
	}
	h.ladder.Push(t, ev)
}

// migrate drains the heap into the ladder in delivery order. The re-pushes
// receive fresh, increasing sequence numbers in exactly the old (time, seq)
// order, and every later push sequences after them, so delivery order is
// preserved bit for bit across the migration.
func (h *eventHeap) migrate() {
	for {
		t, ev, ok := h.heap.Pop()
		if !ok {
			break
		}
		h.ladder.Push(t, ev)
	}
	h.useLadder = true
}

// popBatch drains all events sharing the earliest timestamp into buf
// (reusing its backing array), so the simulator's per-iteration batch is
// allocation-free in steady state.
func (h *eventHeap) popBatch(buf []event) (float64, []event, bool) {
	if h.useLadder {
		return h.ladder.PopBatch(buf)
	}
	return h.heap.PopBatch(buf)
}

// reset empties both queues, keeping their backing arrays for the next run.
func (h *eventHeap) reset() {
	h.heap.Reset()
	h.ladder.Reset()
	h.useLadder = false
}

// arena is the slab-allocated simulation state: jobs, stages, tasks and
// attempts live in flat, index-addressed slices partitioned into
// per-job/per-stage subslices, and every piece of round-local scratch keeps
// its backing storage. Arenas are pooled, so repeated runs — the replication
// engine fanning one experiment over many seeds, a benchmark loop — reuse
// one arena per worker instead of re-allocating the per-run state from
// scratch (the former per-run `make` storm).
type arena struct {
	jobs   []jobState
	stages []stageState // flat; jobState.stages are full-capacity subslices
	tasks  []taskState  // flat; stageState.tasks are full-capacity subslices
	// ints backs the small per-stage/per-task index lists (ready queues,
	// active-stage lists, the one-attempt common case of attemptIDs). Each
	// carve is a zero-length, capacity-bounded subslice: appends fill it in
	// place and a rare overflow (task retries) spills to the heap safely.
	ints     []int
	attempts []attempt // value slab; grows by append during the run
	// freeAttempts lists recycled attempt slots (see attemptRecycling); an
	// ended attempt's slot joins it when the attempt's own completion event
	// fires, the one moment no pending event references the slot.
	freeAttempts []int

	byID map[int]*jobState // job ID -> live job state (pointers are stable)
	// jobSeq is the deterministic iteration order of live job states:
	// workload order in a materialized run (every job, for the whole run);
	// arrival order in a streaming run (jobs join on arrival and leave when
	// their record is recycled). When a streaming source is sorted by arrival
	// — which RunStream requires — the two orders coincide, one of the
	// ingredients of the Run/RunStream byte-identity.
	jobSeq []*jobState
	// pending is the materialized run's not-yet-arrived jobs, stable-sorted
	// by arrival; the arrival cursor walks it (streaming runs pull from the
	// source instead and leave it empty).
	pending []*jobState

	queue eventHeap
	vs    substrate.ViewSet
	// slots is the job behind each of the round's view slots.
	slots []*jobState

	// Round-local scratch reused across scheduling rounds.
	batchBuf  []event
	quant     sched.Quantizer
	cands     []launchCand
	specCands []specCand

	timeline []Sample
}

// arenaPool recycles simulation arenas across runs; each concurrent worker
// effectively owns one.
var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// build lays the workload out in the arena's slabs. Subslices are carved
// with their capacity pinned (three-index slices), so a neighbor can never
// be overwritten by an append.
func (a *arena) build(specs []job.Spec) {
	nStages, nTasks := 0, 0
	for i := range specs {
		nStages += len(specs[i].Stages)
		for si := range specs[i].Stages {
			nTasks += len(specs[i].Stages[si].Tasks)
		}
	}
	a.jobs = substrate.GrowSlab(a.jobs, len(specs))
	a.stages = substrate.GrowSlab(a.stages, nStages)
	a.tasks = substrate.GrowSlab(a.tasks, nTasks)
	a.ints = substrate.GrowSlab(a.ints, nStages+2*nTasks)
	if attemptRecycling {
		// Recycling bounds the slab by peak in-flight attempts; let it grow
		// on demand instead of pre-sizing for one attempt per task.
		a.attempts = a.attempts[:0]
	} else if cap(a.attempts) < nTasks {
		a.attempts = make([]attempt, 0, nTasks)
	} else {
		a.attempts = a.attempts[:0]
	}
	a.freeAttempts = a.freeAttempts[:0]
	if a.byID == nil {
		a.byID = make(map[int]*jobState, len(specs))
	} else {
		clear(a.byID)
	}
	a.jobSeq = a.jobSeq[:0]
	a.pending = a.pending[:0]
	a.queue.reset()
	a.timeline = a.timeline[:0]

	stageOff, taskOff, intOff := 0, 0, 0
	carve := func(n int) []int {
		b := a.ints[intOff : intOff : intOff+n]
		intOff += n
		return b
	}
	for i := range specs {
		spec := &specs[i]
		js := &a.jobs[i]
		ns := len(spec.Stages)
		nt := 0
		for si := range spec.Stages {
			nt += len(spec.Stages[si].Tasks)
		}
		stages := a.stages[stageOff : stageOff+ns : stageOff+ns]
		stageOff += ns
		tasks := a.tasks[taskOff : taskOff+nt : taskOff+nt]
		taskOff += nt
		buildJobState(js, spec, stages, tasks, carve)
		a.byID[spec.ID] = js
		a.jobSeq = append(a.jobSeq, js)
		a.pending = append(a.pending, js)
	}
	slices.SortStableFunc(a.pending, func(x, y *jobState) int {
		if x.spec.Arrival < y.spec.Arrival {
			return -1
		}
		if x.spec.Arrival > y.spec.Arrival {
			return 1
		}
		return 0
	})
}

// buildJobState wires one job's runtime state over caller-provided storage:
// stages and tasks are exact-capacity zeroed slices for this job's
// stage/task records, and carve hands out zero-length capacity-pinned int
// slices for the index lists (activeStages needs ns, each task's attemptIDs
// 1, each stage's readyIdx its task count — ns+2·nt in total). Shared by
// the materialized arena layout and the streaming per-job pooled records.
func buildJobState(js *jobState, spec *job.Spec, stages []stageState, tasks []taskState, carve func(int) []int) {
	js.spec = spec
	js.view.js = js
	js.stages = stages
	js.activeStages = carve(len(spec.Stages))
	taskOff := 0
	for si := range spec.Stages {
		st := &js.stages[si]
		st.spec = &spec.Stages[si]
		nt := len(st.spec.Tasks)
		st.tasks = tasks[taskOff : taskOff+nt : taskOff+nt]
		taskOff += nt
		for ti := range st.spec.Tasks {
			task := &st.tasks[ti]
			task.spec = st.spec.Tasks[ti]
			task.attemptIDs = carve(1)
			st.totalContainers += task.spec.Containers
		}
		st.readyIdx = carve(nt)
		for _, dep := range spec.Deps(si) {
			st.remainingDeps++
			js.stages[dep].dependents = append(js.stages[dep].dependents, si)
		}
	}
	// Root stages (no dependencies) are ready once the job is admitted.
	for si := range js.stages {
		if js.stages[si].remainingDeps == 0 {
			js.activateStage(si)
		}
	}
}

// buildStream resets the arena for a streaming run: job records come from
// the run's free-list pool rather than the jobs/stages/tasks slabs, so only
// the live-job index, the pointer lists, the event queue and the scratch are
// prepared (with backing storage kept, as in build).
func (a *arena) buildStream() {
	a.attempts = a.attempts[:0]
	a.freeAttempts = a.freeAttempts[:0]
	if a.byID == nil {
		a.byID = make(map[int]*jobState, 64)
	} else {
		clear(a.byID)
	}
	a.jobSeq = a.jobSeq[:0]
	a.pending = a.pending[:0]
	a.queue.reset()
	a.timeline = a.timeline[:0]
}

// scrub zeroes the slabs that hold references into caller-owned memory (the
// job specs), so a pooled arena cannot pin a workload after its run, and
// empties the event queue and view registry.
func (a *arena) scrub() {
	clear(a.jobs)
	clear(a.stages)
	clear(a.tasks)
	clear(a.byID)
	clear(a.jobSeq)
	a.jobSeq = a.jobSeq[:0]
	clear(a.pending)
	a.pending = a.pending[:0]
	a.queue.reset()
	a.vs.Reset()
	clear(a.slots[:cap(a.slots)])
	a.slots = a.slots[:0]
}
