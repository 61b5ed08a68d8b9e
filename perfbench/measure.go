package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// window records one measured interval of a workload: per-request latency
// and generator lateness, item outcomes against the ground truth, and wire
// volume. Senders and readers record concurrently.
type window struct {
	mu sync.Mutex

	start time.Time // the first due time
	last  time.Time // last completed response

	lat  []time.Duration // per request: from its due time
	late []time.Duration // per request: generator lateness (see README)

	requests  int
	attempted int // items sent
	failed    int // items lost to a transport error, non-2xx or per-item error
	checked   int // items (or gesture windows) with a ground truth to compare
	correct   int // of checked, answers equal to the ground truth
	degraded  int // frames answered from the stage-0 path
	straddled int // gesture windows spanning a gesture switch (not checked)

	shedDropped, shedOffered uint64 // live-session ring counters

	problems []string // wire-contract violations; any one fails the run

	spans *spanLog // client spans, traced phase only
}

// outcome is what a workload's response check found in one response.
type outcome struct {
	items, failed, checked, correct, degraded, straddled int
}

// record logs one answered request: sent is when it went out, due when it
// was scheduled (its latency is timed from there), late the generator's
// lateness.
func (w *window) record(sent, due, done time.Time, late time.Duration, o outcome) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if done.After(w.last) {
		w.last = done
	}
	w.lat = append(w.lat, done.Sub(due))
	w.late = append(w.late, late)
	w.requests++
	w.attempted += o.items
	w.failed += o.failed
	w.checked += o.checked
	w.correct += o.correct
	w.degraded += o.degraded
	w.straddled += o.straddled
	if w.spans != nil {
		w.spans.add(span{Name: "client", Start: sent, End: done, Req: w.requests})
	}
}

// addVerdicts counts gesture verdicts that arrive outside a timed request
// (the final flush when a session closes).
func (w *window) addVerdicts(o outcome) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.checked += o.checked
	w.correct += o.correct
	w.straddled += o.straddled
	w.failed += o.failed
}

func (w *window) problem(format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.problems) < 20 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// quantile returns the q-quantile (nearest rank) of ds, in milliseconds.
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / 1e6
}

// median returns the median of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the runtime/metrics counters the benchmark reports.
type runtimeSample struct {
	allocBytes uint64  // cumulative heap allocation
	gcCycles   uint64  // completed GC cycles
	gcCPU      float64 // cumulative GC CPU seconds (estimate)
	totalCPU   float64 // cumulative CPU seconds available to Go (estimate)
	heapBytes  uint64  // live + unswept heap object bytes now
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		ms[i].Name = k
	}
	metrics.Read(ms)
	u := func(i int) uint64 {
		if ms[i].Value.Kind() == metrics.KindUint64 {
			return ms[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if ms[i].Value.Kind() == metrics.KindFloat64 {
			return ms[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: u(0), gcCycles: u(1), gcCPU: f(2), totalCPU: f(3), heapBytes: u(4)}
}

// usage brackets a measured interval with the process counters.
type usage struct {
	cpu time.Duration
	rt  runtimeSample
}

func readUsage() usage { return usage{cpu: cpuTime(), rt: readRuntime()} }

// span is one timed call recorded by the benchmark: a client request in
// the traced phase or one depth of the layer ladder. Spans of one ladder
// step share Req; Parent names the depth above.
type span struct {
	Name   string    `json:"name"`
	Parent string    `json:"parent,omitempty"`
	Req    int       `json:"req"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}
