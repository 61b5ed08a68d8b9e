package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hdc/internal/gesture"
	"hdc/internal/graph"
	"hdc/internal/graph/nodes"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/sax"
	"hdc/internal/timeseries"
	"hdc/internal/vision"
)

// ladder.go is the traced run's layer ladder. Each depth calls a lower
// public entry point with the same inputs, one call at a time on a
// one-worker service, and records a span around the call; the difference
// between two depths is the self time of the layer between them:
//
//	client HTTP round trip                 ─┐ transport
//	(*server.Server).ServeHTTP, recorder   ─┤ server
//	RecognizeBatch | Graph.Process | Live.Offer
//	                                        ├ pipeline / graph
//	RecognizeWith | node procs              ├ recognizer
//	vision and sax stages                  ─┘
//
// The first two depths run on the workload's own requests. The layers
// beneath run on the workload's own frames, telemetry items or gesture
// frames, and on companion inputs drawn from the same seed for the layers
// the workload's traffic bypasses, so every run reports every layer.

// ladderBudget bounds the repetitions of each ladder section; each section
// makes at least one pass over its inputs.
const ladderBudget = 750 * time.Millisecond

// ladderStep is one of the workload's own requests and the call beneath
// ServeHTTP for it.
type ladderStep struct {
	req     request
	items   int
	want    int          // expected HTTP status
	prepare func()       // untimed set-up of beneath (may be nil)
	beneath func() error // the direct call under the handler
}

// ladderInputs is what a workload hands the ladder. Nil inputs are replaced
// by companions.
type ladderInputs struct {
	steps    []ladderStep
	signs    [][]*raster.Gray // recognition batches
	tele     *telemetrySet
	gestures [][]*raster.Gray // [gesture][phase step]
	perf     *performer
	cleanup  func() error
}

// ladder records the spans of the ladder and the per-step durations.
type ladder struct {
	log  *spanLog
	step int
	us   map[string][]float64 // self-time samples per metric, µs
}

// timed runs f inside a span.
func (l *ladder) timed(name, parent string, f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	l.log.add(span{Name: name, Parent: parent, Req: l.step, Start: t0, End: t1})
	return float64(t1.Sub(t0).Nanoseconds()) / 1e3, err
}

func (l *ladder) sample(metric string, us float64) { l.us[metric] = append(l.us[metric], us) }

// repeat calls pass until the budget is spent, at least once. Passes
// alternate the order in which they call the depths (see inOrder), so a
// depth does not always run on caches its neighbour just warmed.
func repeat(pass func(reverse bool) error) error {
	deadline := time.Now().Add(ladderBudget)
	for i := 0; ; i++ {
		if err := pass(i%2 == 1); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return nil
		}
	}
}

// inOrder calls fns first to last, or last to first, stopping at an error.
func inOrder(reverse bool, fns ...func() error) error {
	for i := range fns {
		f := fns[i]
		if reverse {
			f = fns[len(fns)-1-i]
		}
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// trimmedMean drops the lowest and highest tenth of xs (GC pauses and
// scheduler hiccups) and averages the rest.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// companionSalt derives the companion inputs' seed from the run's seed.
const companionSalt = 0x6c616464

// companionBatch is the frame count of the companion recognition batches.
const companionBatch = 8

// runLadder sets up a one-worker service, walks the ladder and tears the
// service down again, checking for leaks like any other teardown.
func runLadder(b *bench, base int) (map[string]metric, error) {
	svc, err := startService(1)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = svc.stop()
		}
	}()
	in, err := b.wl.ladderInputs(svc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(b.seed ^ companionSalt))
	if in.signs == nil {
		frames, err := renderSigns(rng, 3*companionBatch)
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(frames); i += companionBatch {
			var batch []*raster.Gray
			for _, f := range frames[i : i+companionBatch] {
				batch = append(batch, f.g)
			}
			in.signs = append(in.signs, batch)
		}
	}
	if in.tele == nil {
		if in.tele, err = genTelemetry(rng, 2*telemetryBatch, telemetryBatch, telemetryBatch); err != nil {
			return nil, err
		}
	}
	if in.gestures == nil {
		if in.gestures, err = renderGestures(rng); err != nil {
			return nil, err
		}
		in.perf = &performer{rng: rand.New(rand.NewSource(rng.Int63()))}
	}

	l := &ladder{log: &spanLog{}, us: map[string][]float64{}}
	m := map[string]metric{}
	err = l.transport(svc, in.steps, m)
	if in.cleanup != nil {
		// The workload's sessions and graphs end before the sections
		// below, so no backlog of theirs shares the pool with them.
		if cerr := in.cleanup(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	if err := l.recognition(svc, in.signs); err != nil {
		return nil, err
	}
	if err := l.graph(svc, in.tele); err != nil {
		return nil, err
	}
	if err := l.gesture(svc, in.gestures, in.perf); err != nil {
		return nil, err
	}
	for name, xs := range l.us {
		m[name] = metric{trimmedMean(xs), "us"}
	}
	b.ladderSpans = l.log
	stopped = true
	if err := svc.checkFramePool(); err != nil {
		_ = svc.stop()
		return nil, err
	}
	if err := svc.stop(); err != nil {
		return nil, err
	}
	return m, awaitGoroutines(base)
}

// transport walks the top three depths over the workload's own requests.
func (l *ladder) transport(svc *service, steps []ladderStep, m map[string]metric) error {
	c, err := dial(svc.addr)
	if err != nil {
		return err
	}
	defer c.close()
	var wire, items float64
	err = repeat(func(reverse bool) error {
		for _, st := range steps {
			l.step++
			hr, err := st.req.httpRequest()
			if err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			var status int
			var body []byte
			var d0, d1, d2 float64
			err = inOrder(reverse,
				func() (err error) {
					d0, err = l.timed("client", "", func() (err error) {
						status, body, err = c.do(st.req)
						return err
					})
					if err == nil {
						err = expectStatus(status, st.want, body)
					}
					return err
				},
				func() error {
					d1, _ = l.timed("server", "client", func() error {
						svc.srv.ServeHTTP(rec, hr)
						return nil
					})
					return expectStatus(rec.Code, st.want, rec.Body.Bytes())
				},
				func() (err error) {
					if st.prepare != nil {
						st.prepare()
					}
					d2, err = l.timed("beneath", "server", st.beneath)
					return err
				})
			if err != nil {
				return fmt.Errorf("ladder %s: %w", st.req.path(), err)
			}
			wire += float64(st.req.size() + len(body))
			items += float64(st.items)
			l.sample("transport.self_us_per_req", d0-d1)
			l.sample("server.self_us_per_req", d1-d2)
		}
		return nil
	})
	m["server.wire_bytes_per_item"] = metric{wire / max(1, items), "bytes"}
	return err
}

// recognition walks pipeline → recognizer → vision/sax stages.
func (l *ladder) recognition(svc *service, batches [][]*raster.Gray) error {
	rec := svc.sys.Rec
	cfg := rec.Config()
	enc, err := sax.NewEncoder(cfg.Segments, cfg.Alphabet)
	if err != nil {
		return err
	}
	dict := rec.Dictionary()
	sc := recognizer.NewScratch()
	vs := sc.Vision()
	lk := sax.NewLookupScratch()
	top := make([]sax.Match, 0, 4)

	// stages times the recogniser's stages on f, in the recogniser's order,
	// and returns their durations; ok is false for a frame without a
	// silhouette (the no_sign path, which skips encode and match).
	type stageTimes struct{ thr, morph, comp, ext, enc, match float64 }
	stages := func(f *raster.Gray) (t stageTimes, ok bool, err error) {
		var mask *vision.Binary
		var sig, z timeseries.Series
		var word sax.Word
		t.thr, _ = l.timed("vision.threshold", "recognizer", func() error { mask = vs.Binarize(f); return nil })
		t.morph, _ = l.timed("vision.morph", "recognizer", func() error { mask = vs.Clean(mask, cfg.MorphRadius); return nil })
		t.comp, _ = l.timed("vision.components", "recognizer", func() error {
			_, _, err := vs.LargestComponent(mask)
			return err
		})
		var extErr error
		t.ext, extErr = l.timed("vision.contour", "recognizer", func() (err error) {
			sig, _, _, err = vs.ExtractSignatureNorm(mask, cfg.SignatureLen, cfg.Normalize)
			return err
		})
		if extErr != nil {
			return t, false, nil
		}
		if t.enc, err = l.timed("sax.encode", "recognizer", func() (err error) {
			z = sig.ZNormalize()
			word, err = enc.EncodeZ(z)
			return err
		}); err != nil {
			return t, false, err
		}
		t.match, err = l.timed("sax.match", "recognizer", func() error {
			_, err := dict.LookupKZWith(lk, z, word, 4, top[:0])
			return err
		})
		return t, err == nil, err
	}

	return repeat(func(reverse bool) error {
		for _, batch := range batches {
			l.step++
			var dBatch float64
			dRec := make([]float64, len(batch))
			st := make([]stageTimes, len(batch))
			ok := make([]bool, len(batch))
			fns := []func() error{func() (err error) {
				dBatch, err = l.timed("pipeline", "beneath", func() error {
					_, _, err := svc.sys.RecognizeBatch(batch)
					return err
				})
				return err
			}}
			for i, f := range batch {
				fns = append(fns,
					func() error {
						dRec[i], _ = l.timed("recognizer", "pipeline", func() error {
							_, err := rec.RecognizeWith(sc, f)
							return err
						})
						return nil
					},
					func() (err error) {
						st[i], ok[i], err = stages(f)
						return err
					})
			}
			if err := inOrder(reverse, fns...); err != nil {
				return err
			}
			sumRec := 0.0
			for i, t := range st {
				sumRec += dRec[i]
				if !ok[i] {
					continue
				}
				l.sample("vision.threshold_us", t.thr)
				l.sample("vision.morph_us", t.morph)
				l.sample("vision.components_us", t.comp)
				l.sample("vision.contour_us", t.ext-t.comp)
				l.sample("sax.encode_us", t.enc)
				l.sample("sax.match_us", t.match)
				l.sample("recognizer.self_us_per_frame", dRec[i]-(t.thr+t.morph+t.ext+t.enc+t.match))
			}
			l.sample("pipeline.self_us_per_item", (dBatch-sumRec)/float64(len(batch)))
		}
		return nil
	})
}

// telemetryGraphs builds one graph per telemetry kind on the service's
// pool, from the same specs the server serves.
func telemetryGraphs(svc *service) (map[string]*graph.Graph, func(), error) {
	p, err := svc.sys.Pool()
	if err != nil {
		return nil, nil, err
	}
	gs := map[string]*graph.Graph{}
	closeAll := func() {
		for _, g := range gs {
			g.Close()
		}
	}
	for kind, spec := range map[string]graph.Spec{"ledring": nodes.LedringSpec(), "imu": nodes.IMUSpec(), "flight": nodes.FlightSpec()} {
		g, err := graph.Build(spec, p, graph.Config{})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		gs[kind] = g
	}
	return gs, closeAll, nil
}

// values returns a telemetry batch as graph inputs.
func (s *telemetrySet) values(kind string, first, n int) []graph.Input {
	in := make([]graph.Input, n)
	for i := range in {
		switch kind {
		case "ledring":
			in[i].Value = s.ledring[first+i].in
		case "imu":
			in[i].Value = s.imu[first+i].in
		default:
			in[i].Value = s.flight[first+i].in
		}
	}
	return in
}

// processChecked runs one batch through g and fails on any slot error.
func processChecked(g *graph.Graph, in []graph.Input) error {
	out, err := g.Process(context.Background(), in)
	if err != nil {
		return err
	}
	for i, o := range out {
		if o.Err != nil {
			return fmt.Errorf("graph %s slot %d: %w", g.Stats().Name, i, o.Err)
		}
	}
	return nil
}

// graph walks Graph.Process → node procs.
func (l *ladder) graph(svc *service, tele *telemetrySet) error {
	gs, closeGraphs, err := telemetryGraphs(svc)
	if err != nil {
		return err
	}
	defer closeGraphs()
	byKind, err := tele.requests()
	if err != nil {
		return err
	}
	var metas []telemetryReq
	for _, ms := range byKind {
		metas = append(metas, ms...)
	}
	procs := map[string][]graph.Proc{
		"ledring": {nodes.LedringDecode(), nodes.LedringPulse()},
		"imu":     {nodes.IMUDetect()},
		"flight":  {nodes.FlightClassify()},
	}
	sc := recognizer.NewScratch()
	return repeat(func(bool) error {
		for _, m := range metas {
			l.step++
			in := tele.values(m.kind, m.first, telemetryBatch)
			dProc, err := l.timed("graph", "beneath", func() error { return processChecked(gs[m.kind], in) })
			if err != nil {
				return err
			}
			sumNodes := 0.0
			for _, v := range in {
				msg := &graph.Msg{Value: v.Value}
				d, err := l.timed("nodes."+m.kind, "graph", func() error {
					for _, p := range procs[m.kind] {
						if err := p(sc, msg); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				sumNodes += d
				l.sample("nodes."+m.kind+"_us", d)
			}
			l.sample("graph.self_us_per_item", (dProc-sumNodes)/telemetryBatch)
		}
		return nil
	})
}

// gesture walks the gesture recogniser's per-frame features and
// per-window classification over the performer's first windows.
func (l *ladder) gesture(svc *service, frames [][]*raster.Gray, perf *performer) error {
	const n = 4 * gestureCycle
	seq := make([]*raster.Gray, n)
	for i := range seq {
		g, ph := perf.at(i)
		seq[i] = frames[g][ph]
	}
	sc := recognizer.NewScratch()
	var cs gesture.ClassifyScratch
	x := make(timeseries.Series, n)
	y := make(timeseries.Series, n)
	return repeat(func(bool) error {
		l.step++
		for i, f := range seq {
			var ft gesture.Features
			d, err := l.timed("gesture.features", "", func() (err error) {
				ft, err = gesture.ExtractFrame(sc.Vision(), f)
				return err
			})
			if err != nil {
				return err
			}
			x[i], y[i] = ft.CenX, ft.Aspect
			l.sample("gesture.features_us", d)
		}
		for end := gestureCycle; end <= n; end += gestureCycle / 2 {
			d, _ := l.timed("gesture.classify", "", func() error {
				_, err := svc.grec.ClassifyWith(&cs, x[end-gestureCycle:end], y[end-gestureCycle:end])
				return err
			})
			l.sample("gesture.classify_us", d)
		}
		return nil
	})
}

// writeSpans writes the traced window's client spans and the ladder's spans
// as JSON lines under the build directory ($PERFBENCH_BUILD, which run.sh
// sets; .bench_build when unset), when the run ends.
func (b *bench) writeSpans(client *spanLog) error {
	build := os.Getenv("PERFBENCH_BUILD")
	if build == "" {
		build = ".bench_build"
	}
	dir := filepath.Join(build, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, log := range []*spanLog{client, b.ladderSpans} {
		if log == nil {
			continue
		}
		for _, s := range log.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// ---- per-workload ladder inputs ----------------------------------------------

func (l *signLive) ladderInputs(svc *service) (*ladderInputs, error) {
	c, err := dial(svc.addr)
	if err != nil {
		return nil, err
	}
	id, err := openStream(c)
	if err != nil {
		c.close()
		return nil, err
	}
	in := &ladderInputs{cleanup: func() error {
		defer c.close()
		return deleteSession(c, "/v1/streams/"+id, http.StatusNoContent)
	}}
	// Each drone's signs, each at another of its waypoints.
	for _, d := range l.drones {
		for si := range signVocab {
			f := []*raster.Gray{d.frames[si%liveViews][si][0]}
			in.signs = append(in.signs, f)
			in.steps = append(in.steps, ladderStep{req: streamPush(id, f[0]), items: 1, want: http.StatusOK,
				beneath: func() error { _, _, err := svc.sys.RecognizeBatch(f); return err }})
		}
	}
	return in, nil
}

func (t *telemetryGraph) ladderInputs(svc *service) (*ladderInputs, error) {
	gs, closeGraphs, err := telemetryGraphs(svc)
	if err != nil {
		return nil, err
	}
	in := &ladderInputs{tele: t.set, cleanup: func() error { closeGraphs(); return nil }}
	// The first four rounds of the endpoint rotation keep the passes short.
	for _, m := range t.meta[:3*4] {
		vals := t.set.values(m.kind, m.first, telemetryBatch)
		g := gs[m.kind]
		in.steps = append(in.steps, ladderStep{req: m.req, items: telemetryBatch, want: http.StatusOK,
			beneath: func() error { return processChecked(g, vals) }})
	}
	return in, nil
}

func (f *gestureFeed) ladderInputs(svc *service) (*ladderInputs, error) {
	c, err := dial(svc.addr)
	if err != nil {
		return nil, err
	}
	id, err := openFeed(c)
	if err != nil {
		c.close()
		return nil, err
	}
	var pool raster.Pool
	live, err := svc.grec.NewLive(svc.sys, gesture.LiveConfig{MatchBuffer: 64, OnFrame: pool.Put})
	if err != nil {
		c.close()
		return nil, err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range live.Matches() {
		}
	}()
	in := &ladderInputs{gestures: f.frames, perf: f.performers[0], cleanup: func() error {
		live.Close()
		<-drained
		defer c.close()
		if gets, puts := pool.Stats(); gets != puts {
			return fmt.Errorf("ladder live session: %d frames taken, %d returned", gets, puts)
		}
		return deleteSession(c, "/v1/gesture/streams/"+id, http.StatusOK)
	}}
	for i := 0; i < 2*gestureCycle; i++ {
		g, ph := f.performers[0].at(i)
		src := f.frames[g][ph]
		var frame *raster.Gray
		in.steps = append(in.steps, ladderStep{req: feedPush(id, []*raster.Gray{src}), items: 1, want: http.StatusOK,
			prepare: func() {
				frame = pool.Get(src.W, src.H)
				copy(frame.Pix, src.Pix)
			},
			beneath: func() error { return live.Offer(frame) }})
	}
	return in, nil
}
