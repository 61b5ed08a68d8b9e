package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"hdc/internal/body"
	"hdc/internal/gesture"
	"hdc/internal/raster"
	"hdc/internal/scene"
	"hdc/internal/server"
)

// gesturefeed.go is the gesture-feed workload: live /v1/gesture/streams
// sessions, each offered one raw frame per push at 30 fps while the
// signaller performs a seeded gesture sequence. Verdicts come back in the
// push responses; a verdict's End names the window's newest frame, so the
// window's ground truth is read off the session's own frame history.

const (
	feedSessions = 2
	// gestureCycle is the gesture recogniser's default frames per cycle and
	// window length.
	gestureCycle = 24
)

var gestureVocab = gesture.Gestures()

// renderGestures renders one cycle of every gesture at the reference view,
// one frame per cycle phase step: [gesture][phase step].
func renderGestures(rng *rand.Rand) ([][]*raster.Gray, error) {
	rend := scene.NewRenderer(scene.Config{})
	out := make([][]*raster.Gray, len(gestureVocab))
	for gi, g := range gestureVocab {
		for p := 0; p < gestureCycle; p++ {
			fig, err := gesture.FigureAt(g, float64(p)/gestureCycle, body.Options{})
			if err != nil {
				return nil, err
			}
			f, err := rend.RenderFigure(fig, scene.ReferenceView(), rng)
			if err != nil {
				return nil, err
			}
			out[gi] = append(out[gi], f)
		}
	}
	return out, nil
}

// performer is one signaller's seeded gesture sequence: segments of a
// random gesture from a random phase, lasting 2–4 cycles each.
type performer struct {
	rng   *rand.Rand
	gest  []int8 // gesture index per frame
	phase []int8 // cycle phase step per frame
}

func (p *performer) at(seq int) (g, phase int) {
	for len(p.gest) <= seq {
		g := int8(p.rng.Intn(len(gestureVocab)))
		ph := p.rng.Intn(gestureCycle)
		n := (2 + p.rng.Intn(3)) * gestureCycle
		for i := 0; i < n; i++ {
			p.gest = append(p.gest, g)
			p.phase = append(p.phase, int8((ph+i)%gestureCycle))
		}
	}
	return int(p.gest[seq]), int(p.phase[seq])
}

// windowTruth is the gesture a window ending at end shows, or -1 when the
// window straddles a switch.
func (p *performer) windowTruth(end int) int {
	if end < gestureCycle-1 || end >= len(p.gest) {
		return -1
	}
	g := p.gest[end]
	for i := end - gestureCycle + 1; i < end; i++ {
		if p.gest[i] != g {
			return -1
		}
	}
	return int(g)
}

// gestureFeed is the open-loop live-session workload.
type gestureFeed struct {
	frames     [][]*raster.Gray
	performers []*performer
	phase      []time.Duration
	next       []int
	sessions   []string
	heads      [][]byte // per session: the frames-push head
	conns      []*conn

	lagSum, lagN float64 // verdict lag in frames, summed under the window's lock
}

func newGestureFeed(seed int64) (*gestureFeed, error) {
	rng := rand.New(rand.NewSource(seed))
	frames, err := renderGestures(rng)
	if err != nil {
		return nil, err
	}
	f := &gestureFeed{frames: frames, next: make([]int, feedSessions)}
	for s := 0; s < feedSessions; s++ {
		f.performers = append(f.performers, &performer{rng: rand.New(rand.NewSource(rng.Int63()))})
		f.phase = append(f.phase, senderPhase(rng, framePeriod, s, feedSessions))
	}
	return f, nil
}

func (f *gestureFeed) offered() (float64, time.Duration) {
	return feedSessions * float64(time.Second/framePeriod), framePeriod
}

func (f *gestureFeed) inputs() [][]byte {
	var out [][]byte
	for _, gs := range f.frames {
		for _, g := range gs {
			out = append(out, g.Pix)
		}
	}
	for _, p := range f.performers {
		p.at(3600)
		seq := make([]byte, 0, 2*3600)
		for i := 0; i < 3600; i++ {
			seq = append(seq, byte(p.gest[i]), byte(p.phase[i]))
		}
		out = append(out, seq)
	}
	for _, p := range f.phase {
		out = append(out, []byte(p.String()))
	}
	return out
}

// openFeed opens a live gesture session and returns its id.
func openFeed(c *conn) (string, error) {
	status, body, err := c.do(newRequest("POST", "/v1/gesture/streams", "application/json", []byte("{}")))
	if err != nil {
		return "", err
	}
	if err := expectStatus(status, http.StatusCreated, body); err != nil {
		return "", fmt.Errorf("POST /v1/gesture/streams: %w", err)
	}
	var info streamInfo
	if err := decodeStrict(body, &info); err != nil || info.ID == "" {
		return "", fmt.Errorf("POST /v1/gesture/streams: malformed response %q", body)
	}
	return info.ID, nil
}

// checkVerdicts scores the verdicts in one feed response against the
// performer's history. newest is the newest frame the session has been
// offered, for the verdict lag. The caller holds the window's lock, which
// also guards the lag sums.
func (f *gestureFeed) checkVerdicts(p *performer, matches []server.GestureResult, newest int, o *outcome) {
	for _, m := range matches {
		if m.Err != "" && m.Err != server.ErrValueNoGesture {
			o.failed++
			continue
		}
		f.lagSum += float64(newest - int(m.End))
		f.lagN++
		truth := p.windowTruth(int(m.End))
		if truth < 0 {
			o.straddled++
			continue
		}
		o.checked++
		if m.OK && m.Gesture == gestureVocab[truth].String() {
			o.correct++
		}
	}
}

// decodeFeed checks a feed response's shape and counters: every frame
// offered so far is accounted for.
func decodeFeed(w *window, status int, body []byte, offered int) (server.GestureFeed, bool) {
	var fd server.GestureFeed
	if err := expectStatus(status, http.StatusOK, body); err != nil {
		w.problem("gesture feed: %v", err)
		return fd, false
	}
	if err := decodeStrict(body, &fd); err != nil {
		w.problem("gesture feed: malformed response: %v", err)
		return fd, false
	}
	if fd.Accepted != uint64(offered) {
		w.problem("gesture feed %s: %d frames accepted, %d offered", fd.ID, fd.Accepted, offered)
		return fd, false
	}
	return fd, true
}

func feedPush(id string, frames []*raster.Gray) request {
	return rawFramesRequest("/v1/gesture/streams/"+id+"/frames", frames)
}

func (f *gestureFeed) prime(svc *service, w *window) error {
	conns, err := dialAll(svc.addr, feedSessions)
	if err != nil {
		return err
	}
	f.conns = conns
	// One checked verdict: a whole window of one gesture in one push, then
	// the flush that returns its verdict.
	id, err := openFeed(conns[0])
	if err != nil {
		return err
	}
	status, body, err := conns[0].do(feedPush(id, f.frames[0]))
	if err != nil {
		return err
	}
	if _, ok := decodeFeed(w, status, body, gestureCycle); !ok {
		return fmt.Errorf("first gesture push failed: %v", w.problems)
	}
	status, body, err = conns[0].do(newRequest("DELETE", "/v1/gesture/streams/"+id, "", nil))
	if err != nil {
		return err
	}
	fd, ok := decodeFeed(w, status, body, gestureCycle)
	if !ok {
		return fmt.Errorf("gesture flush failed: %v", w.problems)
	}
	if len(fd.Matches) == 0 || fd.Matches[0].Gesture != gestureVocab[0].String() {
		return fmt.Errorf("first gesture verdict not correct: %+v", fd.Matches)
	}
	f.sessions, f.heads = f.sessions[:0], f.heads[:0]
	for s := 0; s < feedSessions; s++ {
		id, err := openFeed(conns[s])
		if err != nil {
			return err
		}
		f.sessions = append(f.sessions, id)
		f.heads = append(f.heads, feedPush(id, f.frames[0][:1]).head)
	}
	return nil
}

func (f *gestureFeed) drive(svc *service, d time.Duration, w *window) {
	n := int(d / framePeriod)
	start := openStart(w, f.phase)
	sched := schedule(start, framePeriod, f.phase, f.next, n, len(f.conns), func(s, seq int) request {
		g, ph := f.performers[s].at(seq)
		return request{head: f.heads[s], body: f.frames[g][ph].Pix}
	})
	runOpenLoop(f.conns, sched, w, func(t tick, status int, body []byte) outcome {
		o := outcome{items: 1}
		fd, ok := decodeFeed(w, status, body, t.seq+1)
		if !ok {
			o.failed = 1
			return o
		}
		w.mu.Lock()
		f.checkVerdicts(f.performers[t.stream], fd.Matches, t.seq, &o)
		w.mu.Unlock()
		return o
	})
}

// finish flushes each session — its final verdicts are scored too — and
// records the ring's shed counters.
func (f *gestureFeed) finish(svc *service, w *window) error {
	defer closeAll(f.conns)
	for s, id := range f.sessions {
		status, body, err := f.conns[s].do(newRequest("DELETE", "/v1/gesture/streams/"+id, "", nil))
		if err != nil {
			return fmt.Errorf("DELETE /v1/gesture/streams/%s: %w", id, err)
		}
		fd, ok := decodeFeed(w, status, body, f.next[s])
		if !ok {
			continue
		}
		var o outcome
		w.mu.Lock()
		f.checkVerdicts(f.performers[s], fd.Matches, f.next[s]-1, &o)
		w.shedDropped += fd.Dropped
		w.shedOffered += fd.Accepted
		w.mu.Unlock()
		w.addVerdicts(o)
	}
	return nil
}
