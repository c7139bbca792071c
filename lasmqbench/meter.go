package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// heapProbe samples the live heap at points of a policy run: at every
// every-th assignment, through the policy wrapper, and when the run returns
// with its result still held. Each sample collects garbage on the simulating
// goroutine itself, so nothing allocates during the mark and the sample is
// the exact live heap at that point of the run. A sampler running beside the
// simulation would read the live heap of the collector's last cycle, which
// grows with how much the simulation allocated while that cycle marked.
type heapProbe struct {
	every int
	calls int
	peak  uint64 // highest sample since the run started
	s     []metrics.Sample
}

func newHeapProbe(every int) *heapProbe {
	return &heapProbe{every: every, s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

// tick counts one assignment and samples at every every-th; a nil probe
// does nothing.
func (h *heapProbe) tick() {
	if h == nil {
		return
	}
	h.calls++
	if h.calls%h.every == 0 {
		h.sample()
	}
}

func (h *heapProbe) sample() {
	runtime.GC()
	metrics.Read(h.s)
	h.peak = max(h.peak, h.s[0].Value.Uint64())
}

// meter accumulates one sweep's timed region across the policy runs it is
// started and stopped around.
type meter struct {
	// heap, when set, samples each interval's live heap into peaks; only
	// the memory pass sets it, as its collections would distort the wall.
	heap     *heapProbe
	peaks    []uint64
	runs     []time.Duration // wall of each started-and-stopped interval
	allocs   uint64          // heap bytes allocated
	gcCPU    float64         // CPU seconds spent in the garbage collector
	gcCycles uint64
	jobs     int // completed simulated jobs

	t0      time.Time
	samples []metrics.Sample
	before  [3]metrics.Value
}

var meterMetrics = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/gc/cycles/total:gc-cycles"}

func newMeter() *meter {
	m := &meter{samples: make([]metrics.Sample, len(meterMetrics))}
	for i, name := range meterMetrics {
		m.samples[i].Name = name
	}
	return m
}

// start begins one policy run's timed interval. It first collects garbage,
// outside the interval, so every run starts from the same collector state
// and pays for its own garbage only.
func (m *meter) start() {
	runtime.GC()
	metrics.Read(m.samples)
	for i := range m.before {
		m.before[i] = m.samples[i].Value
	}
	if m.heap != nil {
		m.heap.calls, m.heap.peak = 0, 0
	}
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.runs = append(m.runs, time.Since(m.t0))
	metrics.Read(m.samples)
	m.allocs += m.samples[0].Value.Uint64() - m.before[0].Uint64()
	m.gcCPU += m.samples[1].Value.Float64() - m.before[1].Float64()
	m.gcCycles += m.samples[2].Value.Uint64() - m.before[2].Uint64()
	if m.heap != nil {
		m.heap.sample()
		m.peaks = append(m.peaks, m.heap.peak)
	}
}
