package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"hdc/internal/body"
	"hdc/internal/raster"
	"hdc/internal/scene"
	"hdc/internal/server"
)

// signs.go holds the §IV sign workload and the request and response code
// the workloads share. Frames are 256×256 renders of
// the three signs at seeded views inside the envelope E6/E7 report as
// recognised (altitude 2–4.5 m, 3 m stand-off, azimuth 0–45°), with the
// renderer's sensor noise drawn from the seed. The ground truth of a frame
// is the sign it shows.

var signVocab = []body.Sign{body.SignNo, body.SignYes, body.SignAttention}

// signFrame is one rendered frame and its ground truth.
type signFrame struct {
	g    *raster.Gray
	sign body.Sign
}

// randomView draws a view inside the recognised envelope.
func randomView(rng *rand.Rand) scene.View {
	return scene.View{AltitudeM: 2 + 2.5*rng.Float64(), DistanceM: 3, AzimuthDeg: 45 * rng.Float64()}
}

// renderSigns renders n frames cycling the three signs, each at its own
// seeded view.
func renderSigns(rng *rand.Rand, n int) ([]signFrame, error) {
	rend := scene.NewRenderer(scene.Config{})
	out := make([]signFrame, n)
	for i := range out {
		s := signVocab[i%len(signVocab)]
		g, err := rend.Render(s, randomView(rng), body.Options{}, rng)
		if err != nil {
			return nil, err
		}
		out[i] = signFrame{g: g, sign: s}
	}
	return out, nil
}

// rawFramesRequest encodes frames as one raw-wire (octet-stream) request.
func rawFramesRequest(path string, frames []*raster.Gray) request {
	w, h := frames[0].W, frames[0].H
	body := frames[0].Pix // a single frame is sent from its own pixels
	if len(frames) > 1 {
		body = make([]byte, 0, len(frames)*w*h)
		for _, f := range frames {
			body = append(body, f.Pix...)
		}
	}
	return newRequest("POST", path, "application/octet-stream", body,
		"X-Frame-Width", strconv.Itoa(w), "X-Frame-Height", strconv.Itoa(h),
		"X-Frame-Count", strconv.Itoa(len(frames)))
}

// decodeStrict unmarshals a response body, refusing unknown fields and
// trailing data: the response must be exactly the wire type.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON document")
	}
	return nil
}

type frameResults struct {
	Results []server.FrameResult `json:"results"`
}

// checkFrames verifies a recognition response against the frames' truths:
// status, one result per frame in order, and each verdict. A no_sign answer
// is a wrong answer, not a failure; any other per-frame error is a failure.
func checkFrames(w *window, what string, status int, body []byte, truth []body.Sign) outcome {
	o := outcome{items: len(truth), checked: len(truth)}
	if err := expectStatus(status, http.StatusOK, body); err != nil {
		w.problem("%s: %v", what, err)
		o.failed = len(truth)
		return o
	}
	var fr frameResults
	if err := decodeStrict(body, &fr); err != nil {
		w.problem("%s: malformed response: %v", what, err)
		o.failed = len(truth)
		return o
	}
	if len(fr.Results) != len(truth) {
		w.problem("%s: %d results for %d frames", what, len(fr.Results), len(truth))
		o.failed = len(truth)
		return o
	}
	for i, r := range fr.Results {
		if r.Degraded {
			o.degraded++
		}
		switch r.Err {
		case "":
			if r.OK && r.Sign == truth[i].String() {
				o.correct++
			}
		case server.ErrValueNoSign:
		default:
			o.failed++
		}
	}
	return o
}

// dialAll opens n client connections.
func dialAll(addr string, n int) ([]*conn, error) {
	out := make([]*conn, 0, n)
	for i := 0; i < n; i++ {
		c, err := dial(addr)
		if err != nil {
			closeAll(out)
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

// primeRequest sends one request and requires a contract-clean answer with
// at least one item equal to its ground truth.
func primeRequest(c *conn, r request, w *window, check func(i, status int, body []byte) outcome, i int) error {
	status, body, err := c.do(r)
	if err != nil {
		return fmt.Errorf("%s: %w", r.path(), err)
	}
	o := check(i, status, body)
	if o.failed > 0 || o.correct == 0 {
		return fmt.Errorf("%s: first answer not correct (%d failed, %d correct of %d): %v", r.path(), o.failed, o.correct, o.items, w.problems)
	}
	return nil
}

// ---- sign-live --------------------------------------------------------------

const (
	liveDrones = 8
	liveConns  = 2
	// Each drone circles liveViews seeded waypoints, liveViewHold frames at
	// each. Recognition cost depends on the view (its spread over views is
	// about a fifth of its mean), so a run must cover many views for its
	// mean cost to be a property of the workload and not of the seed's few
	// views: 64 views per run, each visited several times in a window.
	liveViews    = 8
	liveViewHold = 15
	liveVariants = 2 // noisy renders per view and sign, cycled
)

// liveDrone is one simulated camera: seeded waypoints and a seeded sign
// sequence that holds each sign for hold frames.
type liveDrone struct {
	frames [][][]*raster.Gray // [view][sign][variant]
	hold   int
	signs  []int // sign index per hold-segment, extended on demand
	rng    *rand.Rand
}

// frame is the drone's frame number seq showing sign.
func (d *liveDrone) frame(seq, sign int) *raster.Gray {
	return d.frames[seq/liveViewHold%liveViews][sign][seq%liveVariants]
}

func (d *liveDrone) signAt(seq int) int {
	for len(d.signs)*d.hold <= seq {
		d.signs = append(d.signs, d.rng.Intn(len(signVocab)))
	}
	return d.signs[seq/d.hold]
}

// signLive is the open-loop /v1/streams workload.
type signLive struct {
	drones   []*liveDrone
	phase    []time.Duration
	next     []int
	heads    [][]byte // per drone: the frames-push head of its session
	sessions []string
	conns    []*conn
	truth    [][]body.Sign // [drone][seq], filled as ticks are scheduled
}

func newSignLive(seed int64) (*signLive, error) {
	rng := rand.New(rand.NewSource(seed))
	rend := scene.NewRenderer(scene.Config{})
	l := &signLive{next: make([]int, liveDrones), truth: make([][]body.Sign, liveDrones)}
	for d := 0; d < liveDrones; d++ {
		dr := &liveDrone{hold: 30 + rng.Intn(61), rng: rand.New(rand.NewSource(rng.Int63()))}
		for v := 0; v < liveViews; v++ {
			view := randomView(rng)
			var bySign [][]*raster.Gray
			for _, s := range signVocab {
				var vs []*raster.Gray
				for k := 0; k < liveVariants; k++ {
					g, err := rend.Render(s, view, body.Options{}, rng)
					if err != nil {
						return nil, err
					}
					vs = append(vs, g)
				}
				bySign = append(bySign, vs)
			}
			dr.frames = append(dr.frames, bySign)
		}
		l.drones = append(l.drones, dr)
		l.phase = append(l.phase, senderPhase(rng, framePeriod, d, liveDrones))
	}
	return l, nil
}

func (l *signLive) offered() (float64, time.Duration) {
	return liveDrones * float64(time.Second/framePeriod), framePeriod
}

func (l *signLive) inputs() [][]byte {
	var out [][]byte
	for _, d := range l.drones {
		for _, bySign := range d.frames {
			for _, vs := range bySign {
				for _, g := range vs {
					out = append(out, g.Pix)
				}
			}
		}
		out = append(out, []byte(strconv.Itoa(d.hold)), []byte(fmt.Sprint(d.signAt(3600))))
	}
	for _, p := range l.phase {
		out = append(out, []byte(p.String()))
	}
	return out
}

// streamInfo is the wire description of a session (server/wire.go).
type streamInfo struct {
	ID        string `json:"id"`
	Window    int    `json:"window"`
	Submitted uint64 `json:"submitted"`
}

// openStream opens a recognition stream session and returns its id.
func openStream(c *conn) (string, error) {
	status, body, err := c.do(newRequest("POST", "/v1/streams", "application/json", []byte("{}")))
	if err != nil {
		return "", err
	}
	if err := expectStatus(status, http.StatusCreated, body); err != nil {
		return "", fmt.Errorf("POST /v1/streams: %w", err)
	}
	var info streamInfo
	if err := decodeStrict(body, &info); err != nil || info.ID == "" {
		return "", fmt.Errorf("POST /v1/streams: malformed response %q", body)
	}
	return info.ID, nil
}

func streamPush(id string, g *raster.Gray) request {
	return rawFramesRequest("/v1/streams/"+id+"/frames", []*raster.Gray{g})
}

func (l *signLive) prime(svc *service, w *window) error {
	conns, err := dialAll(svc.addr, liveConns)
	if err != nil {
		return err
	}
	l.conns = conns
	// One checked answer from each endpoint, on a session of its own.
	id, err := openStream(conns[0])
	if err != nil {
		return err
	}
	d0 := l.drones[0]
	s := d0.signAt(0)
	check := func(i, status int, resp []byte) outcome {
		return checkFrames(w, "POST /v1/streams/{id}/frames", status, resp, []body.Sign{signVocab[s]})
	}
	if err := primeRequest(conns[0], streamPush(id, d0.frame(0, s)), w, check, 0); err != nil {
		return err
	}
	if err := deleteSession(conns[0], "/v1/streams/"+id, http.StatusNoContent); err != nil {
		return err
	}
	l.sessions, l.heads = l.sessions[:0], l.heads[:0]
	for _, d := range l.drones {
		id, err := openStream(conns[0])
		if err != nil {
			return err
		}
		l.sessions = append(l.sessions, id)
		l.heads = append(l.heads, streamPush(id, d.frame(0, 0)).head)
	}
	return nil
}

func deleteSession(c *conn, path string, want int) error {
	status, body, err := c.do(newRequest("DELETE", path, "", nil))
	if err != nil {
		return fmt.Errorf("DELETE %s: %w", path, err)
	}
	return expectStatus(status, want, body)
}

func (l *signLive) drive(svc *service, d time.Duration, w *window) {
	n := int(d / framePeriod)
	start := openStart(w, l.phase)
	sched := schedule(start, framePeriod, l.phase, l.next, n, len(l.conns), func(s, seq int) request {
		dr := l.drones[s]
		sign := dr.signAt(seq)
		l.truth[s] = append(l.truth[s], signVocab[sign])
		return request{head: l.heads[s], body: dr.frame(seq, sign).Pix}
	})
	runOpenLoop(l.conns, sched, w, func(t tick, status int, resp []byte) outcome {
		return checkFrames(w, "POST /v1/streams/{id}/frames", status, resp, []body.Sign{l.truth[t.stream][t.seq]})
	})
}

// finish checks each session's submitted count against the frames sent,
// then closes the sessions.
func (l *signLive) finish(svc *service, w *window) error {
	defer closeAll(l.conns)
	c, err := dial(svc.addr)
	if err != nil {
		return err
	}
	defer c.close()
	for s, id := range l.sessions {
		var info streamInfo
		status, body, err := c.do(newRequest("GET", "/v1/streams/"+id, "", nil))
		if err != nil {
			return err
		}
		if err := expectStatus(status, http.StatusOK, body); err != nil {
			return fmt.Errorf("GET /v1/streams/%s: %w", id, err)
		}
		if err := decodeStrict(body, &info); err != nil {
			return fmt.Errorf("GET /v1/streams/%s: %w", id, err)
		}
		if info.Submitted != uint64(l.next[s]) {
			w.problem("stream %s: server counted %d frames, %d sent", id, info.Submitted, l.next[s])
		}
		if err := deleteSession(c, "/v1/streams/"+id, http.StatusNoContent); err != nil {
			return err
		}
	}
	return nil
}
