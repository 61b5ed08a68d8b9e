// Command perfbench is the repository benchmark: it serves the recognition
// service in-process (server.New over core.NewSystem, gesture endpoints on,
// as hdcserve serves them) on a loopback listener, drives one of three seeded
// workloads at it over HTTP, checks every answer against the generator's
// ground truth, and prints the end-to-end metrics — or, with --trace 1, the
// per-layer metrics of a traced run. README.md explains the workloads, the
// metrics and the layer ladder.
//
//	perfbench --workload sign-live --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times a run sets the service up; setup_s is the
// median, and the last set-up serves the measured windows.
const setupRuns = 15

// warmup is the load applied before the measured window, so the pool, the
// graphs and the caches are warm.
const warmup = time.Second

// workload is one seeded traffic mix.
type workload interface {
	// inputs returns the generated inputs, for the digest.
	inputs() [][]byte
	// prime opens the workload's connections and sessions on svc and gets
	// one correct answer from every endpoint the workload uses.
	prime(svc *service, w *window) error
	// offered is the load the workload's senders offer — items per second
	// — and the period of each sender's schedule.
	offered() (itemsPerS float64, period time.Duration)
	// drive applies the load for d, recording into w.
	drive(svc *service, d time.Duration, w *window)
	// finish ends the sessions and connections, checking what they return.
	finish(svc *service, w *window) error
	// ladderInputs opens what the layer ladder needs on svc: the
	// workload's own requests with the call beneath each, and its own
	// inputs for the layers its traffic passes through (see ladder.go).
	ladderInputs(svc *service) (*ladderInputs, error)
}

// workloads maps the workload names to their generators.
var workloads = map[string]func(seed int64) (workload, error){
	"sign-live":       func(seed int64) (workload, error) { return newSignLive(seed) },
	"telemetry-graph": func(seed int64) (workload, error) { return newTelemetryGraph(seed) },
	"gesture-feed":    func(seed int64) (workload, error) { return newGestureFeed(seed) },
}

// correctFloor is the correct_ratio below which a run is not correct: a
// gross regression of the answers, far below what each workload reads.
const correctFloor = 0.5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sign-live | telemetry-graph | gesture-feed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured window in seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	gen, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), " | "))
		return 2
	}

	wl, err := gen(*seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: generating inputs:", err)
		return 1
	}
	fmt.Fprintf(stdout, "inputs workload=%s seed=%d digest=%s\n", *name, *seed, digest(wl.inputs()))

	b := &bench{name: *name, seed: *seed, wl: wl, seconds: time.Duration(*seconds) * time.Second, stdout: stdout}
	res, err := b.run(*traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintln(stderr, "perfbench: problem:", p)
	}
	fmt.Fprintln(stdout, mustJSON(res))
	return 0
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// digest hashes the seeded inputs, so two sides can show they ran the same.
func digest(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built values are marshalled
	}
	return string(b)
}

// bench is one run of one workload.
type bench struct {
	name    string
	seed    int64
	wl      workload
	seconds time.Duration
	stdout  io.Writer

	problems    []string // reasons the run is not correct
	ladderSpans *spanLog // the traced run's ladder spans
}

func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// setUp sets the service up setupRuns times, tearing all but the last one
// down again, and returns the last one with the median set-up time.
func (b *bench) setUp(base int, w *window) (*service, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		svc, err := startService(0)
		if err != nil {
			return nil, 0, err
		}
		if err := b.wl.prime(svc, w); err != nil {
			_ = svc.stop()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupRuns-1 {
			fmt.Fprintf(b.stdout, "setup runs=%.4f\n", times)
			return svc, median(times), nil
		}
		if err := b.tearDown(svc, w, base); err != nil {
			return nil, 0, err
		}
	}
}

// tearDown ends the workload's sessions, checks the frame pool balances,
// stops the service and waits for every goroutine it started to exit. A
// leak is an error: the run ends without a result.
func (b *bench) tearDown(svc *service, w *window, base int) error {
	if err := b.wl.finish(svc, w); err != nil {
		b.fail("finish: %v", err)
	}
	if err := svc.checkFramePool(); err != nil {
		_ = svc.stop()
		return err
	}
	if err := svc.stop(); err != nil {
		return err
	}
	return awaitGoroutines(base)
}

// measure applies the load for d and brackets it with the usage counters.
func (b *bench) measure(svc *service, d time.Duration, w *window) (usage, usage) {
	u0 := readUsage()
	b.wl.drive(svc, d, w)
	return u0, readUsage()
}

func (b *bench) run(traced bool) (result, error) {
	base := runtime.NumGoroutine()
	primeWin := &window{}
	svc, setupS, err := b.setUp(base, primeWin)
	if err != nil {
		return result{}, err
	}
	pool, _ := svc.sys.PoolStats()
	fmt.Fprintf(b.stdout, "host %s\n", mustJSON(currentHost(pool.Workers)))
	warm := &window{}
	b.wl.drive(svc, warmup, warm)
	b.problems = append(b.problems, warm.problems...)

	if !traced {
		w := &window{}
		u0, u1 := b.measure(svc, b.seconds, w)
		if err := b.tearDown(svc, w, base); err != nil {
			return result{}, err
		}
		b.check(primeWin, w)
		return b.endToEnd(w, u0, u1, setupS), nil
	}

	// Traced run: an untraced window for the overhead base, a traced window
	// with the server-side observers on, then the layer ladder on a
	// one-worker service.
	half := b.seconds / 2
	wa := &window{}
	ua0, ua1 := b.measure(svc, half, wa)
	wb := &window{spans: &spanLog{}}
	obs, err := observe(svc)
	if err != nil {
		_ = svc.stop()
		return result{}, err
	}
	ub0, ub1 := b.measure(svc, half, wb)
	layer, err := obs.finish(svc, wb)
	if err != nil {
		_ = svc.stop()
		return result{}, err
	}
	if err := b.tearDown(svc, wb, base); err != nil {
		return result{}, err
	}
	b.check(primeWin, wa)
	b.check(nil, wb)

	lad, err := runLadder(b, base)
	if err != nil {
		return result{}, err
	}
	for k, v := range lad {
		layer[k] = v
	}
	perItem := func(u0, u1 usage, w *window) float64 {
		return (u1.cpu - u0.cpu).Seconds() / math.Max(1, float64(w.attempted))
	}
	layer["bench.trace_overhead_ratio"] = metric{perItem(ub0, ub1, wb) / perItem(ua0, ua1, wa), "ratio"}
	layer["client.latency_p90_ms"] = metric{quantileMS(wa.lat, 0.90), "ms"}
	layer["client.latency_p99_ms"] = metric{quantileMS(wa.lat, 0.99), "ms"}
	layer["gen.late_ms_p99"] = metric{quantileMS(wa.late, 0.99), "ms"}
	lag := 0.0
	if gf, ok := b.wl.(*gestureFeed); ok && gf.lagN > 0 {
		lag = gf.lagSum / gf.lagN
	}
	layer["gesture.verdict_lag_frames"] = metric{lag, "frames"}
	if err := b.writeSpans(wb.spans); err != nil {
		b.fail("writing spans: %v", err)
	}
	return result{
		Correct:   len(b.problems) == 0,
		Attempted: wa.attempted + wb.attempted,
		Failed:    wa.failed + wb.failed,
		Metrics:   layer,
	}, nil
}

// check folds a window's contract findings, correctness floor and the
// open-loop generator's punctuality into the run's verdict.
func (b *bench) check(prime, w *window) {
	for _, win := range []*window{prime, w} {
		if win != nil {
			b.problems = append(b.problems, win.problems...)
		}
	}
	if w.attempted == 0 {
		b.fail("no items completed")
		return
	}
	if r := share(w.correct, w.checked); r < correctFloor {
		b.fail("correct_ratio %.3f below %.2f", r, correctFloor)
	}
	offered, period := b.wl.offered()
	if late := quantileMS(w.late, 0.99); late > period.Seconds()*1e3 {
		b.fail("invalid run: the generator fell behind (late p99 %.1f ms > one period)", late)
	}
	if rate := float64(w.attempted) / w.last.Sub(w.start).Seconds(); rate < 0.98*offered {
		b.fail("invalid run: %.1f items/s completed of %.0f offered, a growing backlog", rate, offered)
	}
}

// share is a/b, or 0 for an empty base.
func share(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEnd computes the end-to-end metrics of an untraced window.
func (b *bench) endToEnd(w *window, u0, u1 usage, setupS float64) result {
	items := float64(w.attempted)
	elapsed := w.last.Sub(w.start).Seconds()
	frames := 0 // recognition frames, the only items that can be degraded
	if b.name == "sign-live" {
		frames = w.attempted
	}
	m := map[string]metric{
		"setup_s":           {setupS, "s"},
		"items_per_s":       {items / elapsed, "1/s"},
		"latency_p50_ms":    {quantileMS(w.lat, 0.50), "ms"},
		"cpu_ms_per_item":   {(u1.cpu - u0.cpu).Seconds() * 1e3 / items, "ms"},
		"alloc_kb_per_item": {float64(u1.rt.allocBytes-u0.rt.allocBytes) / 1024 / items, "KB"},
		"correct_ratio":     {share(w.correct, w.checked), "ratio"},
		"ok_ratio":          {1 - share(w.failed, w.attempted), "ratio"},
		"full_answer_ratio": {1 - share(w.degraded, frames), "ratio"},
		"kept_ratio":        {1 - share(int(w.shedDropped), int(w.shedOffered)), "ratio"},
	}
	fmt.Fprintf(b.stdout, "window items=%d requests=%d elapsed=%.3fs checked=%d correct=%d straddled=%d failed=%d degraded=%d shed=%d/%d late_p50=%.3fms late_p99=%.3fms p99=%.3fms gc=%d\n",
		w.attempted, w.requests, elapsed, w.checked, w.correct, w.straddled, w.failed, w.degraded, w.shedDropped, w.shedOffered,
		quantileMS(w.late, 0.5), quantileMS(w.late, 0.99), quantileMS(w.lat, 0.99), u1.rt.gcCycles-u0.rt.gcCycles)
	return result{Correct: len(b.problems) == 0, Attempted: w.attempted, Failed: w.failed, Metrics: m}
}

// host is the record of the machine a run was taken on. Numbers from hosts
// that differ in any field must not be compared.
type host struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	PoolWorkers int    `json:"pool_workers"`
}

func currentHost(poolWorkers int) host {
	return host{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		PoolWorkers: poolWorkers,
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
