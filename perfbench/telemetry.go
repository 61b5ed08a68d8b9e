package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"time"

	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/graph/nodes"
	"hdc/internal/imu"
	"hdc/internal/ledring"
	"hdc/internal/server"
)

// telemetry.go is the telemetry-graph workload: two uplinks sending 16-item
// JSON batches on a fixed schedule, rotating through the ledring, imu and
// flight graph endpoints. The seed
// generates LED-ring observations (navigation headings, the danger display,
// take-off/landing pulse pairs), IMU windows recorded from a simulated
// airframe in a known motion state, and flight.Executor trajectories of
// every pattern. Each item carries its ground truth.

const (
	telemetryBatch     = 16
	telemetryOperators = 2
	// telemetryPeriod is each operator's send interval: 50 batches/s, 1600
	// items/s from both, about a quarter of what the pool answers flat out.
	telemetryPeriod = 20 * time.Millisecond
	ledringItems    = 512
	imuItems        = 64
	flightItems     = 64
	imuSamples      = 200 // 4 s at 50 Hz
	imuDT           = 0.02
)

// ledringTruth is what a decoded ring must read.
type ledringTruth struct {
	headingDeg float64 // navigation rings only
	nav        bool
	danger     bool
	pulse      string
}

type ledringItem struct {
	in    nodes.LedringInput
	truth ledringTruth
}

func genLedring(rng *rand.Rand) (ledringItem, error) {
	n := 8 + rng.Intn(9)
	r, err := ledring.New(ledring.Options{LEDCount: n})
	if err != nil {
		return ledringItem{}, err
	}
	switch k := rng.Intn(10); {
	case k < 6:
		h := 360 * rng.Float64()
		r.SetNavigation(geom.NewHeading(geom.Deg2Rad(h)))
		return ledringItem{in: nodes.LedringInput{Frames: [][]ledring.Color{r.LEDs()}},
			truth: ledringTruth{headingDeg: h, nav: true, pulse: ledring.PulseNone.String()}}, nil
	case k < 8:
		r.SetDanger()
		return ledringItem{in: nodes.LedringInput{Frames: [][]ledring.Color{r.LEDs()}},
			truth: ledringTruth{danger: true, pulse: ledring.PulseNone.String()}}, nil
	default:
		p := ledring.PulseTakeOff
		if k == 9 {
			p = ledring.PulseLanding
		}
		if err := r.StartPulse(p); err != nil {
			return ledringItem{}, err
		}
		a := r.LEDs()
		r.TickPulse()
		return ledringItem{in: nodes.LedringInput{Frames: [][]ledring.Color{a, r.LEDs()}},
			truth: ledringTruth{pulse: p.String()}}, nil
	}
}

func (t ledringTruth) matches(r server.LedringResult) bool {
	if r.Danger != t.danger || r.Pulse != t.pulse || r.PulseErr != "" {
		return false
	}
	if !t.nav {
		return true
	}
	return r.HeadingErr == "" && math.Abs(math.Remainder(r.HeadingDeg-t.headingDeg, 360)) <= r.QuantErrDeg
}

var imuStates = []imu.MotionState{imu.StateGrounded, imu.StateHover, imu.StateClimb, imu.StateDescent, imu.StateTranslate}

type imuItem struct {
	in    nodes.IMUWindow
	truth string
}

// genIMU records a window of an airframe held in one motion state from the
// start of the window.
func genIMU(rng *rand.Rand, st imu.MotionState) (imuItem, error) {
	alt := 0.0
	if st != imu.StateGrounded {
		alt = 5 + 10*rng.Float64()
	}
	d, err := flight.New(flight.DefaultParams(), geom.V3(0, 0, alt))
	if err != nil {
		return imuItem{}, err
	}
	sensor, err := imu.New(imu.Config{}, rand.New(rand.NewSource(rng.Int63())))
	if err != nil {
		return imuItem{}, err
	}
	var cmd geom.Vec3
	switch st {
	case imu.StateClimb:
		cmd = geom.V3(0, 0, 1.5+rng.Float64())
	case imu.StateDescent:
		cmd = geom.V3(0, 0, -(1.2 + rng.Float64()))
	case imu.StateTranslate:
		a := 2 * math.Pi * rng.Float64()
		sp := 3 + 2*rng.Float64()
		cmd = geom.V3(sp*math.Cos(a), sp*math.Sin(a), 0)
	}
	if st != imu.StateGrounded {
		d.StartRotors()
	}
	w := make(nodes.IMUWindow, imuSamples)
	for i := range w {
		if st != imu.StateGrounded {
			d.Step(imuDT, cmd, 0)
		}
		s := sensor.Sample(imuDT, d.S, d.RotorsOn())
		// The wire carries four decimals, as a sensor's resolution would.
		s.Accel = geom.V3(round4(s.Accel.X), round4(s.Accel.Y), round4(s.Accel.Z))
		s.GyroZ, s.BaroAltM = round4(s.GyroZ), round4(s.BaroAltM)
		w[i] = s
	}
	return imuItem{in: w, truth: st.String()}, nil
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

type flightItem struct {
	in    flight.Trajectory
	truth string
}

// genFlight flies one pattern (after take-off, for the airborne ones)
// towards a seeded target.
func genFlight(rng *rand.Rand, p flight.Pattern) (flightItem, error) {
	d, err := flight.New(flight.DefaultParams(), geom.Vec3{})
	if err != nil {
		return flightItem{}, err
	}
	e := flight.NewExecutor(d)
	if p != flight.PatternTakeOff {
		if _, err := e.Fly(flight.PatternTakeOff, geom.Vec3{}); err != nil {
			return flightItem{}, err
		}
	}
	tr, err := e.Fly(p, geom.V3(6+4*rng.Float64(), 4*rng.Float64()-2, 0))
	if err != nil {
		return flightItem{}, err
	}
	for i := range tr {
		s := &tr[i]
		s.T = round4(s.T)
		s.Pos = geom.V3(round4(s.Pos.X), round4(s.Pos.Y), round4(s.Pos.Z))
		s.Heading = geom.NewHeading(geom.Deg2Rad(round4(s.Heading.Deg())))
	}
	return flightItem{in: tr, truth: p.String()}, nil
}

// telemetrySet is the seeded item set of the three graph endpoints.
type telemetrySet struct {
	ledring []ledringItem
	imu     []imuItem
	flight  []flightItem
}

func genTelemetry(rng *rand.Rand, nLed, nIMU, nFlight int) (*telemetrySet, error) {
	t := &telemetrySet{}
	for i := 0; i < nLed; i++ {
		it, err := genLedring(rng)
		if err != nil {
			return nil, err
		}
		t.ledring = append(t.ledring, it)
	}
	for i := 0; i < nIMU; i++ {
		it, err := genIMU(rng, imuStates[i%len(imuStates)])
		if err != nil {
			return nil, err
		}
		t.imu = append(t.imu, it)
	}
	pats := flight.Patterns()
	for i := 0; i < nFlight; i++ {
		it, err := genFlight(rng, pats[i%len(pats)])
		if err != nil {
			return nil, err
		}
		t.flight = append(t.flight, it)
	}
	return t, nil
}

// Wire encodings of the graph endpoints' requests (see server/graph.go).
type (
	wireRing struct {
		Frames [][]int `json:"frames"`
	}
	wireIMUSample struct {
		TS       float64    `json:"t_s"`
		Accel    [3]float64 `json:"accel"`
		GyroZ    float64    `json:"gyro_z"`
		BaroAltM float64    `json:"baro_alt_m"`
	}
	wireFlightSample struct {
		TS         float64    `json:"t_s"`
		Pos        [3]float64 `json:"pos"`
		HeadingDeg float64    `json:"heading_deg"`
	}
)

func ledringBody(items []ledringItem) ([]byte, error) {
	rings := make([]wireRing, len(items))
	for i, it := range items {
		for _, f := range it.in.Frames {
			leds := make([]int, len(f))
			for k, c := range f {
				leds[k] = int(c)
			}
			rings[i].Frames = append(rings[i].Frames, leds)
		}
	}
	return json.Marshal(struct {
		Rings []wireRing `json:"rings"`
	}{rings})
}

func imuBody(items []imuItem) ([]byte, error) {
	wins := make([][]wireIMUSample, len(items))
	for i, it := range items {
		for _, s := range it.in {
			wins[i] = append(wins[i], wireIMUSample{
				TS:    s.T.Seconds(),
				Accel: [3]float64{s.Accel.X, s.Accel.Y, s.Accel.Z},
				GyroZ: s.GyroZ, BaroAltM: s.BaroAltM,
			})
		}
	}
	return json.Marshal(struct {
		Windows [][]wireIMUSample `json:"windows"`
	}{wins})
}

func flightBody(items []flightItem) ([]byte, error) {
	trs := make([][]wireFlightSample, len(items))
	for i, it := range items {
		for _, s := range it.in {
			trs[i] = append(trs[i], wireFlightSample{
				TS: s.T, Pos: [3]float64{s.Pos.X, s.Pos.Y, s.Pos.Z}, HeadingDeg: s.Heading.Deg(),
			})
		}
	}
	return json.Marshal(struct {
		Trajectories [][]wireFlightSample `json:"trajectories"`
	}{trs})
}

// telemetryReq is one pre-encoded batch and where its items sit in the set.
type telemetryReq struct {
	req   request
	kind  string // ledring | imu | flight
	first int    // index of the batch's first item in its kind's set
}

// telemetryGraph is the graph workload.
type telemetryGraph struct {
	set   *telemetrySet
	reqs  []request
	meta  []telemetryReq
	phase []time.Duration
	next  []int
	conns []*conn
}

func newTelemetryGraph(seed int64) (*telemetryGraph, error) {
	rng := rand.New(rand.NewSource(seed))
	set, err := genTelemetry(rng, ledringItems, imuItems, flightItems)
	if err != nil {
		return nil, err
	}
	byKind, err := set.requests()
	if err != nil {
		return nil, err
	}
	// Rotate endpoints: ledring, imu, flight, ledring, ... — each kind's
	// batches cycle at their own pace.
	t := &telemetryGraph{set: set, next: make([]int, telemetryOperators)}
	for o := 0; o < telemetryOperators; o++ {
		t.phase = append(t.phase, senderPhase(rng, telemetryPeriod, o, telemetryOperators))
	}
	n := 0
	for _, ms := range byKind {
		n = max(n, len(ms))
	}
	for i := 0; i < n; i++ {
		for _, ms := range byKind {
			t.meta = append(t.meta, ms[i%len(ms)])
			t.reqs = append(t.reqs, ms[i%len(ms)].req)
		}
	}
	return t, nil
}

// requests encodes the set as 16-item batches, one list per endpoint:
// ledring, imu, flight.
func (s *telemetrySet) requests() ([][]telemetryReq, error) {
	out := make([][]telemetryReq, 3)
	for i := 0; i+telemetryBatch <= len(s.ledring); i += telemetryBatch {
		b, err := ledringBody(s.ledring[i : i+telemetryBatch])
		if err != nil {
			return nil, err
		}
		out[0] = append(out[0], telemetryReq{req: newRequest("POST", "/v1/graph/ledring", "application/json", b), kind: "ledring", first: i})
	}
	for i := 0; i+telemetryBatch <= len(s.imu); i += telemetryBatch {
		b, err := imuBody(s.imu[i : i+telemetryBatch])
		if err != nil {
			return nil, err
		}
		out[1] = append(out[1], telemetryReq{req: newRequest("POST", "/v1/graph/imu", "application/json", b), kind: "imu", first: i})
	}
	for i := 0; i+telemetryBatch <= len(s.flight); i += telemetryBatch {
		b, err := flightBody(s.flight[i : i+telemetryBatch])
		if err != nil {
			return nil, err
		}
		out[2] = append(out[2], telemetryReq{req: newRequest("POST", "/v1/graph/flight", "application/json", b), kind: "flight", first: i})
	}
	return out, nil
}

// check verifies one graph response against its batch's ground truth.
func (s *telemetrySet) check(w *window, m telemetryReq, status int, body []byte) outcome {
	o := outcome{items: telemetryBatch, checked: telemetryBatch}
	what := m.req.path()
	if err := expectStatus(status, http.StatusOK, body); err != nil {
		w.problem("%s: %v", what, err)
		o.failed = telemetryBatch
		return o
	}
	fail := func(format string, args ...any) outcome {
		w.problem("%s: "+format, append([]any{what}, args...)...)
		o.failed = telemetryBatch
		return o
	}
	switch m.kind {
	case "ledring":
		var resp struct {
			Results []server.LedringResult `json:"results"`
		}
		if err := decodeStrict(body, &resp); err != nil {
			return fail("malformed response: %v", err)
		}
		if len(resp.Results) != telemetryBatch {
			return fail("%d results for %d rings", len(resp.Results), telemetryBatch)
		}
		for i, r := range resp.Results {
			if r.Err != "" {
				o.failed++
			} else if s.ledring[m.first+i].truth.matches(r) {
				o.correct++
			}
		}
	case "imu":
		var resp struct {
			Results []server.IMUResult `json:"results"`
		}
		if err := decodeStrict(body, &resp); err != nil {
			return fail("malformed response: %v", err)
		}
		if len(resp.Results) != telemetryBatch {
			return fail("%d results for %d windows", len(resp.Results), telemetryBatch)
		}
		for i, r := range resp.Results {
			it := s.imu[m.first+i]
			switch {
			case r.Err != "":
				o.failed++
			case r.Samples != len(it.in):
				w.problem("%s: window %d answered for %d samples, %d sent", what, i, r.Samples, len(it.in))
				o.failed++
			case r.State == it.truth:
				o.correct++
			}
		}
	default:
		var resp struct {
			Results []server.FlightResult `json:"results"`
		}
		if err := decodeStrict(body, &resp); err != nil {
			return fail("malformed response: %v", err)
		}
		if len(resp.Results) != telemetryBatch {
			return fail("%d results for %d trajectories", len(resp.Results), telemetryBatch)
		}
		for i, r := range resp.Results {
			if r.Err != "" {
				o.failed++
			} else if r.Pattern == s.flight[m.first+i].truth {
				o.correct++
			}
		}
	}
	return o
}

func (t *telemetryGraph) inputs() [][]byte {
	out := requestBytes(t.reqs)
	for _, p := range t.phase {
		out = append(out, []byte(p.String()))
	}
	return out
}

func (t *telemetryGraph) offered() (float64, time.Duration) {
	return telemetryOperators * telemetryBatch * float64(time.Second/telemetryPeriod), telemetryPeriod
}

// index is the request operator o sends as its seq-th: operators start half
// the rotation apart, one endpoint out of step, so they are rarely on the
// same endpoint at once.
func (t *telemetryGraph) index(o, seq int) int {
	return (o*(len(t.reqs)/telemetryOperators+1) + seq) % len(t.reqs)
}

func (t *telemetryGraph) check(w *window) func(i, status int, body []byte) outcome {
	return func(i, status int, body []byte) outcome { return t.set.check(w, t.meta[i], status, body) }
}

func (t *telemetryGraph) prime(svc *service, w *window) error {
	conns, err := dialAll(svc.addr, telemetryOperators)
	if err != nil {
		return err
	}
	t.conns = conns
	check := t.check(w)
	for i := 0; i < 3; i++ { // the first batch of each endpoint
		if err := primeRequest(conns[0], t.reqs[i], w, check, i); err != nil {
			return err
		}
	}
	return nil
}

func (t *telemetryGraph) drive(svc *service, d time.Duration, w *window) {
	start := openStart(w, t.phase)
	sched := schedule(start, telemetryPeriod, t.phase, t.next, int(d/telemetryPeriod), len(t.conns), func(o, seq int) request {
		return t.reqs[t.index(o, seq)]
	})
	runOpenLoop(t.conns, sched, w, func(tk tick, status int, body []byte) outcome {
		return t.set.check(w, t.meta[t.index(tk.stream, tk.seq)], status, body)
	})
}

func (t *telemetryGraph) finish(svc *service, w *window) error {
	closeAll(t.conns)
	return nil
}

// requestBytes flattens requests for the input digest.
func requestBytes(reqs []request) [][]byte {
	out := make([][]byte, 0, 2*len(reqs))
	for _, r := range reqs {
		out = append(out, r.head, r.body)
	}
	return out
}
