package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"

	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// spanName identifies the layer boundary a span was recorded at. Every span
// is recorded from this package, around a call into a simulator layer; the
// simulator itself carries no tracing.
type spanName uint8

const (
	spanPolicyRun      spanName = iota // one RunSharded / fluid.Run call
	spanShard                          // one engine shard, newSource(k) to newSource(k+1)
	spanStage                          // workload.NewStageSource's Next (flat→staged)
	spanNext                           // the trace source's Next (generation and striding)
	spanAssign                         // Scheduler.Assign / AssignInto
	spanObserve                        // Observer.Observe
	spanObserveHorizon                 // ObserveHinter.ObserveHorizon
	spanHorizon                        // Hinter.Horizon
	spanQuantize                       // replayed sched.Quantizer.QuantizeInto
	numSpanNames
)

// span is one timed call. Start and end are nanoseconds since the tracer's
// epoch on the monotonic clock; parent indexes the enclosing span (-1 for a
// policy run); run indexes tracer.runs.
type span struct {
	start, end int64
	parent     int32
	run        uint16
	name       spanName
}

// spanCapacity bounds the spans of one traced sweep: an engine-stream sweep
// records about 1.2 million, a traced fluid-trace sweep about 2 million.
const spanCapacity = 1 << 22

// tracer records spans into one preallocated buffer that is reused across
// traced sweeps. The buffer is mapped outside the Go heap: a heap buffer of
// that size would raise the garbage collector's heap goal and so change the
// collection cost of the very sweeps being measured. It is single-threaded:
// traced sweeps run their shards serially.
type tracer struct {
	epoch time.Time
	mem   []byte
	spans []span
	// full is set when a span did not fit; the sweep is then an error.
	full bool
	cur  int32
	// runs names the policy of each policy run, indexed by span.run.
	runs []string
	// assignJobs counts the job views passed to the assign calls.
	assignJobs int
}

func newTracer() (*tracer, error) {
	size := spanCapacity * int(unsafe.Sizeof(span{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map span buffer: %w", err)
	}
	spans := unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), spanCapacity)
	return &tracer{epoch: time.Now(), mem: mem, spans: spans[:0], cur: -1}, nil
}

// close unmaps the span buffer; the tracer must not be used afterwards.
func (t *tracer) close() error {
	t.spans = nil
	return syscall.Munmap(t.mem)
}

// reset empties the buffer for the next traced sweep, keeping its storage.
func (t *tracer) reset() {
	t.spans = t.spans[:0]
	t.runs = t.runs[:0]
	t.cur = -1
	t.assignJobs = 0
	t.full = false
}

// begin opens a span and returns its index, or -1 on a nil tracer or a full
// buffer; end ignores -1.
func (t *tracer) begin(name spanName) int32 {
	if t == nil {
		return -1
	}
	i := int32(len(t.spans))
	if len(t.spans) == cap(t.spans) {
		t.full = true
		return -1
	}
	t.spans = append(t.spans, span{
		start:  int64(time.Since(t.epoch)),
		parent: t.cur,
		run:    uint16(len(t.runs) - 1),
		name:   name,
	})
	t.cur = i
	return i
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.cur = t.spans[i].parent
}

// beginRun opens the span of one policy run.
func (t *tracer) beginRun(policy string) int32 {
	if t == nil {
		return -1
	}
	t.runs = append(t.runs, policy)
	return t.begin(spanPolicyRun)
}

// writeTo writes the buffer to the file at path as fixed-width little-endian
// records (start, end int64; parent int32; run uint16; name uint8; pad), so a
// traced run leaves its raw spans behind for offline inspection.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	var rec [24]byte
	for _, s := range t.spans {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
		binary.LittleEndian.PutUint32(rec[16:], uint32(s.parent))
		binary.LittleEndian.PutUint16(rec[20:], s.run)
		rec[22] = byte(s.name)
		if _, err := w.Write(rec[:]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// tracedStream records a span around every Next of a source.
type tracedStream[S any] struct {
	src  substrate.Stream[S]
	t    *tracer
	name spanName
}

func (s *tracedStream[S]) Next() (S, bool, error) {
	i := s.t.begin(s.name)
	v, ok, err := s.src.Next()
	s.t.end(i)
	return v, ok, err
}

// Policy capabilities the substrates probe for with type assertions. The
// engine skips rounds and replays observation only for an Observer, fluid
// re-evaluates at horizons only for a Hinter, and so on: a wrapper that adds
// or drops one changes the simulated trajectory, not just its timing.
type capability uint8

const (
	capBuffered capability = 1 << iota
	capObserver
	capObserveHinter
	capHinter
	capProbeSetter
)

func capabilities(p sched.Scheduler) capability {
	var c capability
	if _, ok := p.(sched.BufferedAssigner); ok {
		c |= capBuffered
	}
	if _, ok := p.(sched.Observer); ok {
		c |= capObserver
	}
	if _, ok := p.(sched.ObserveHinter); ok {
		c |= capObserveHinter
	}
	if _, ok := p.(sched.Hinter); ok {
		c |= capHinter
	}
	if _, ok := p.(obs.ProbeSetter); ok {
		c |= capProbeSetter
	}
	return c
}

// instruments are what a sweep's sources and policies report to. A traced
// sweep records spans on t; the memory pass samples the live heap through
// heap at calls into the policies. A timed sweep has neither.
type instruments struct {
	t    *tracer
	heap *heapProbe
}

// timedPolicy records spans around every call into a policy and ticks the
// heap probe at every assignment. Its capability-exact faces
// (bufferedPolicy, hintingPolicy, observingPolicy) implement exactly the
// optional interfaces of the policy they wrap.
type timedPolicy struct {
	inner sched.Scheduler
	t     *tracer
	heap  *heapProbe
	// With qz set, every assignment is followed by a replay of the engine's
	// quantization on a private Quantizer, so its cost is measured without
	// touching the engine's own.
	qz     *sched.Quantizer
	demand map[int]float64
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Assign(now, capacity float64, jobs []sched.JobView) sched.Assignment {
	p.enter(jobs)
	i := p.t.begin(spanAssign)
	out := p.inner.Assign(now, capacity, jobs)
	p.t.end(i)
	p.quantize(capacity, jobs, out)
	return out
}

func (p *timedPolicy) AssignInto(now, capacity float64, jobs []sched.JobView, out sched.Assignment) {
	p.enter(jobs)
	i := p.t.begin(spanAssign)
	p.inner.(sched.BufferedAssigner).AssignInto(now, capacity, jobs, out)
	p.t.end(i)
	p.quantize(capacity, jobs, out)
}

// enter counts an assignment's job views and ticks the heap probe, before
// the assignment's span opens.
func (p *timedPolicy) enter(jobs []sched.JobView) {
	if p.t != nil {
		p.t.assignJobs += len(jobs)
	}
	p.heap.tick()
}

func (p *timedPolicy) quantize(capacity float64, jobs []sched.JobView, alloc sched.Assignment) {
	if p.qz == nil {
		return
	}
	i := p.t.begin(spanQuantize)
	clear(p.demand)
	for _, j := range jobs {
		p.demand[j.ID()] = j.ReadyDemand()
	}
	p.qz.QuantizeInto(alloc, p.demand, int(capacity))
	p.t.end(i)
}

func (p *timedPolicy) horizon(now float64, jobs []sched.JobView, alloc sched.Assignment) float64 {
	i := p.t.begin(spanHorizon)
	h := p.inner.(sched.Hinter).Horizon(now, jobs, alloc)
	p.t.end(i)
	return h
}

type bufferedPolicy struct{ *timedPolicy }

type hintingPolicy struct{ *timedPolicy }

func (p hintingPolicy) Horizon(now float64, jobs []sched.JobView, alloc sched.Assignment) float64 {
	return p.horizon(now, jobs, alloc)
}

type observingPolicy struct{ *timedPolicy }

func (p observingPolicy) Horizon(now float64, jobs []sched.JobView, alloc sched.Assignment) float64 {
	return p.horizon(now, jobs, alloc)
}

func (p observingPolicy) Observe(now float64, jobs []sched.JobView) {
	i := p.t.begin(spanObserve)
	p.inner.(sched.Observer).Observe(now, jobs)
	p.t.end(i)
}

func (p observingPolicy) ObserveHorizon(now float64, jobs []sched.JobView, rates sched.Assignment) float64 {
	i := p.t.begin(spanObserveHorizon)
	h := p.inner.(sched.ObserveHinter).ObserveHorizon(now, jobs, rates)
	p.t.end(i)
	return h
}

func (p observingPolicy) SetProbe(probe obs.Probe) { p.inner.(obs.ProbeSetter).SetProbe(probe) }

// timePolicy wraps p so every call into it reports to in, and returns p
// itself when in is empty. With quantize set on a traced sweep, each
// assignment also replays the engine's share quantization. It fails for a
// capability set no face reproduces, so a new policy cannot be timed under a
// different trajectory by accident.
func timePolicy(p sched.Scheduler, in instruments, quantize bool) (sched.Scheduler, error) {
	if in == (instruments{}) {
		return p, nil
	}
	tp := &timedPolicy{inner: p, t: in.t, heap: in.heap}
	if quantize && in.t != nil {
		tp.qz = new(sched.Quantizer)
		tp.demand = make(map[int]float64)
	}
	var w sched.Scheduler
	switch capabilities(p) {
	case capBuffered:
		w = bufferedPolicy{tp}
	case capBuffered | capHinter:
		w = hintingPolicy{tp}
	case capBuffered | capObserver | capObserveHinter | capHinter | capProbeSetter:
		w = observingPolicy{tp}
	default:
		return nil, fmt.Errorf("no timing wrapper keeps %s's capability set %05b", p.Name(), capabilities(p))
	}
	if capabilities(w) != capabilities(p) {
		panic(fmt.Sprintf("timing wrapper for %s has capabilities %05b, want %05b", p.Name(), capabilities(w), capabilities(p)))
	}
	return w, nil
}
