package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// latencies collects per-operation wall-clock durations of one latency
// class. It is owned by one load goroutine; merge combines them at the end.
type latencies struct{ ns []int64 }

func (l *latencies) add(d time.Duration) { l.ns = append(l.ns, int64(d)) }

func (l *latencies) merge(o *latencies) { l.ns = append(l.ns, o.ns...) }

// quantileUs returns the nearest-rank p-quantile in microseconds, or 0
// without samples. The slice is sorted in place.
func (l *latencies) quantileUs(p float64) float64 {
	if len(l.ns) == 0 {
		return 0
	}
	sort.Slice(l.ns, func(i, j int) bool { return l.ns[i] < l.ns[j] })
	rank := int(math.Ceil(p*float64(len(l.ns)))) - 1
	rank = max(0, min(rank, len(l.ns)-1))
	return float64(l.ns[rank]) / 1e3
}

// quantileOf is quantileUs over a plain slice of float samples.
func quantileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(rank, len(s)-1))]
}

// processSample is one reading of the process-wide counters the
// end-to-end CPU, allocation and GC metrics are deltas of.
type processSample struct {
	wall       time.Time
	cpu        time.Duration // user + system
	allocBytes uint64
	gcPauseNs  float64
	heapGoal   uint64
	heapLive   uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/pauses:seconds"},
	{Name: "/gc/heap/goal:bytes"},
	{Name: "/gc/heap/live:bytes"},
}

func sampleProcess() processSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(runtimeSamples)
	return processSample{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: runtimeSamples[0].Value.Uint64(),
		gcPauseNs:  pauseTotalNs(runtimeSamples[1].Value.Float64Histogram()),
		heapGoal:   runtimeSamples[2].Value.Uint64(),
		heapLive:   runtimeSamples[3].Value.Uint64(),
	}
}

// pauseTotalNs approximates the summed stop-the-world pause time from the
// runtime's pause histogram, using each bucket's lower bound.
func pauseTotalNs(h *metrics.Float64Histogram) float64 {
	var total float64
	for i, c := range h.Counts {
		lo := h.Buckets[i]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		total += float64(c) * lo * 1e9
	}
	return total
}

// phaseMeter accumulates the process counters over the timed segments of
// a run only; the benchmark's own checkpoints and probes run between
// segments and are excluded. A segment is one round.
//
// The garbage collector is off inside a segment. Left on, a run of a few
// seconds caught two or three collector cycles of a heap this size at
// points that varied from run to run, and that alone moved cpu_us_per_op
// by a fifth between runs. Instead the meter runs a full collection
// between segments once the segments have allocated the runway the pacer
// leaves after a collection (heap goal − live heap), that is when the
// pacer would have started one, and charges every segment its share of a
// collection: the segment's allocation ÷ that runway, times the CPU, wall
// and pause time the last collection took. The charged CPU and wall time
// count in cpu_us_per_op and ops_per_s; the latencies leave the collector
// out.
//
// ops_per_s and cpu_us_per_op are medians over the segments, so a few
// seconds in which a shared host runs the process slowly move them less
// than a total over the run would.
type phaseMeter struct {
	start     processSample
	gcPercent int
	wall      time.Duration
	cpu       time.Duration
	alloc     uint64
	// The last collection: what it cost, the live heap and runway it
	// left, and what the segments have allocated since.
	last    gcCost
	runway  uint64
	live    uint64
	sinceGC uint64
	// Collector work charged to the segments, in pacer cycles and in
	// the CPU, wall and pause time of that many collections.
	gcCycles  float64
	gcCPU     time.Duration
	gcWall    time.Duration
	gcPauseNs float64
	segs      []segment
}

type gcCost struct {
	cpu, wall time.Duration
	pauseNs   float64
}

// segment is what one timed segment measured, its charged collector
// share included.
type segment struct {
	ops       int64
	wall, cpu time.Duration
}

// collect runs a full collection and records its cost and what it left.
func (m *phaseMeter) collect() {
	before := sampleProcess()
	runtime.GC()
	after := sampleProcess()
	m.last = gcCost{cpu: after.cpu - before.cpu, wall: after.wall.Sub(before.wall), pauseNs: after.gcPauseNs - before.gcPauseNs}
	m.live = after.heapLive
	m.runway = 0
	if after.heapGoal > after.heapLive { // else GOGC=off: the pacer would run no collection
		m.runway = after.heapGoal - after.heapLive
	}
	m.sinceGC = 0
}

func (m *phaseMeter) resume() {
	m.gcPercent = debug.SetGCPercent(-1)
	m.start = sampleProcess()
}

// pause ends a segment of ops operations.
func (m *phaseMeter) pause(ops int64) {
	end := sampleProcess()
	debug.SetGCPercent(m.gcPercent)
	alloc := end.allocBytes - m.start.allocBytes
	seg := segment{ops: ops, wall: end.wall.Sub(m.start.wall), cpu: end.cpu - m.start.cpu}
	m.wall += seg.wall
	m.cpu += seg.cpu
	m.alloc += alloc
	if m.runway > 0 {
		share := float64(alloc) / float64(m.runway)
		gcCPU := time.Duration(share * float64(m.last.cpu))
		gcWall := time.Duration(share * float64(m.last.wall))
		m.gcCycles += share
		m.gcCPU += gcCPU
		m.gcWall += gcWall
		m.gcPauseNs += share * m.last.pauseNs
		seg.cpu += gcCPU
		seg.wall += gcWall
	}
	m.segs = append(m.segs, seg)
	m.sinceGC += alloc
	if m.sinceGC >= m.runway {
		m.collect()
	}
}

// liveHeapMiB collects and reports the live heap.
func (m *phaseMeter) liveHeapMiB() float64 {
	m.collect()
	return float64(m.live) / (1 << 20)
}

// cpuPerOpUs and opsPerSec are the end-to-end CPU and throughput figures,
// collector share included: medians over the segments.
func (m *phaseMeter) cpuPerOpUs() float64 {
	var xs []float64
	for _, s := range m.segs {
		xs = append(xs, float64(s.cpu.Nanoseconds())/1e3/float64(s.ops))
	}
	return median(xs)
}

func (m *phaseMeter) opsPerSec() float64 {
	return median(m.segOpsPerSec())
}

func (m *phaseMeter) segOpsPerSec() []float64 {
	var xs []float64
	for _, s := range m.segs {
		xs = append(xs, float64(s.ops)/s.wall.Seconds())
	}
	return xs
}
