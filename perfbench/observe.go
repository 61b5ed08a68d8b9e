package main

import (
	"time"

	"hdc/internal/graph"
	"hdc/internal/server"
)

// observe.go collects the per-layer metrics the service reports about
// itself during the traced window: /statsz and GET /v1/graph counter deltas,
// the per-frame pipeline stamps on /tracez, the pool queue depth sampled
// through core.System.PoolQueue, and runtime/metrics. None of it runs in an
// untraced window.

// observer brackets the traced window.
type observer struct {
	start  time.Time
	stats  server.StatsResponse
	shed   uint64
	rt     runtimeSample
	stop   chan struct{}
	done   chan struct{}
	depth  []int // queue depth samples
	heapHi uint64
}

// graphShed sums the shed counters of every edge of every built graph.
func graphShed(svc *service) (uint64, error) {
	var idx struct {
		Workloads []string      `json:"workloads"`
		Graphs    []graph.Stats `json:"graphs"`
	}
	if err := svc.get("/v1/graph", &idx); err != nil {
		return 0, err
	}
	var n uint64
	for _, g := range idx.Graphs {
		for _, e := range g.Edges {
			n += e.Shed
		}
	}
	return n, nil
}

// observe snapshots the counters and starts the sampler.
func observe(svc *service) (*observer, error) {
	o := &observer{stop: make(chan struct{}), done: make(chan struct{})}
	if err := svc.get("/statsz", &o.stats); err != nil {
		return nil, err
	}
	shed, err := graphShed(svc)
	if err != nil {
		return nil, err
	}
	o.shed = shed
	o.rt = readRuntime()
	o.start = time.Now()
	go o.sample(svc)
	return o, nil
}

// sample reads the pool queue every millisecond and the heap every 10 ms.
func (o *observer) sample(svc *service) {
	defer close(o.done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-o.stop:
			return
		case <-tick.C:
		}
		if q, _, started := svc.sys.PoolQueue(); started {
			o.depth = append(o.depth, q)
		}
		if i%10 == 0 {
			if h := readRuntime().heapBytes; h > o.heapHi {
				o.heapHi = h
			}
		}
	}
}

// finish stops the sampler and turns the deltas into per-layer metrics.
func (o *observer) finish(svc *service, w *window) (map[string]metric, error) {
	close(o.stop)
	<-o.done
	end := time.Now()
	rt := readRuntime()
	var after server.StatsResponse
	if err := svc.get("/statsz", &after); err != nil {
		return nil, err
	}
	shed, err := graphShed(svc)
	if err != nil {
		return nil, err
	}
	var tz server.TracezResponse
	if err := svc.get("/tracez?limit=1000000", &tz); err != nil {
		return nil, err
	}

	items := float64(max(1, w.attempted))
	accepted := after.Pool.IngestAccepted - o.stats.Pool.IngestAccepted
	dropped := after.Pool.IngestDropped - o.stats.Pool.IngestDropped
	queueWait, deliverWait, busy := pipelineStamps(tz, o.start, end, after.Pool.Workers)
	depth := 0.0
	for _, d := range o.depth {
		depth += float64(d)
	}
	if len(o.depth) > 0 {
		depth /= float64(len(o.depth))
	}
	gcCPU := 0.0
	if d := rt.totalCPU - o.rt.totalCPU; d > 0 {
		gcCPU = (rt.gcCPU - o.rt.gcCPU) / d
	}
	return map[string]metric{
		"server.admission_rejected":      {float64(after.Admission.Rejected - o.stats.Admission.Rejected), "count"},
		"server.degraded_frames":         {float64(after.Admission.DegradedFrames - o.stats.Admission.DegradedFrames), "count"},
		"pipeline.queue_wait_us_p50":     {queueWait, "us"},
		"pipeline.deliver_wait_us_p50":   {deliverWait, "us"},
		"pipeline.queue_depth_mean":      {depth, "count"},
		"pipeline.worker_busy_ratio":     {busy, "ratio"},
		"ingest.shed_ratio":              {share(int(dropped), int(accepted)), "ratio"},
		"ingest.accepted":                {float64(accepted), "count"},
		"graph.edge_shed":                {float64(shed - o.shed), "count"},
		"runtime.gc_cycles_per_1k_items": {float64(rt.gcCycles-o.rt.gcCycles) * 1000 / items, "count"},
		"runtime.gc_cpu_ratio":           {gcCPU, "ratio"},
		"runtime.heap_peak_mb":           {float64(o.heapHi) / (1 << 20), "MB"},
	}, nil
}

// pipelineStamps reads the per-frame pool stamps of the frames that started
// inside [start, end): the p50 of the queue wait (enqueue → dequeue) and of
// the delivery wait (classify → deliver), in µs, and the workers' busy share
// (dequeue → classify) over the interval those frames cover.
func pipelineStamps(tz server.TracezResponse, start, end time.Time, workers int) (queueUS, deliverUS, busy float64) {
	var queue, deliver []float64
	var busyNs, first, last int64
	for _, f := range tz.Frames {
		if f.StartUnixNs < start.UnixNano() || f.StartUnixNs >= end.UnixNano() {
			continue
		}
		var deq, cls int64
		for _, s := range f.Stages {
			switch s.Stage {
			case "dequeue":
				queue = append(queue, float64(s.SinceNs)/1e3)
				deq = s.AtUnix
			case "classify":
				cls = s.AtUnix
			case "deliver":
				deliver = append(deliver, float64(s.SinceNs)/1e3)
			}
		}
		if deq > 0 && cls >= deq {
			busyNs += cls - deq
			if first == 0 || deq < first {
				first = deq
			}
			last = max(last, cls)
		}
	}
	if last > first && workers > 0 {
		busy = float64(busyNs) / float64(int64(workers)*(last-first))
	}
	return median(queue), median(deliver), busy
}
