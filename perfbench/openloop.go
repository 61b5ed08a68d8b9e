package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// openloop.go drives the workloads as open loops: independent senders
// (cameras, telemetry uplinks), each sending one request per period on a
// schedule fixed from the seed and the start time. Sending never waits on replies:
// each connection has one writer that sends at the due times and one
// reader that takes the in-order replies. Latency is timed from the due
// time (see sentTick), so a stall is charged to every frame queued behind
// it, and the writer's own lateness is recorded so a run whose generator
// fell behind can be refused instead of reported.

// framePeriod is the camera cadence: 30 frames per second.
const framePeriod = time.Second / 30

// senderPhase is sender s of n's offset within the period: the senders'
// clocks are staggered evenly, each with a seeded jitter of up to a quarter
// of its slot. The stagger is part of the workload, not of its inputs: left
// to the seed, clustered phases would queue behind each other on a shared
// connection in one seed and not in the next, and the seeds would measure
// different arrival patterns instead of different inputs.
func senderPhase(rng *rand.Rand, period time.Duration, s, n int) time.Duration {
	slot := period / time.Duration(n)
	return time.Duration(s)*slot + time.Duration(rng.Int63n(int64(slot/4)))
}

// tick is one scheduled send.
type tick struct {
	due    time.Time
	stream int // session index within the workload
	seq    int // frame number within the session
	req    request
}

// sentTick is a tick on its way to the reader. Its latency is timed from
// its due time, whatever held the writer past it: a late timer, a blocked
// send, or the service's own goroutines holding the CPUs. late is how far
// past the due time the send went out.
type sentTick struct {
	tick
	sent time.Time
	late time.Duration
}

// schedule lays out n ticks per stream from start: stream s sends at
// start + phase[s] + k·period for k = next[s] … next[s]+n-1, and stream s
// uses connection s % conns. It returns the ticks per connection in due
// order.
func schedule(start time.Time, period time.Duration, phase []time.Duration, next []int, n, conns int, req func(stream, seq int) request) [][]tick {
	out := make([][]tick, conns)
	for k := 0; k < n; k++ {
		for s := range phase {
			seq := next[s] + k
			out[s%conns] = append(out[s%conns], tick{
				due:    start.Add(phase[s] + time.Duration(k)*period),
				stream: s,
				seq:    seq,
				req:    req(s, seq),
			})
		}
	}
	for _, ticks := range out {
		sort.Slice(ticks, func(i, j int) bool { return ticks[i].due.Before(ticks[j].due) })
	}
	for s := range next {
		next[s] += n
	}
	return out
}

// runOpenLoop sends the per-connection schedules and records every reply
// into w through check. It returns once every reply is in.
func runOpenLoop(conns []*conn, sched [][]tick, w *window, check func(t tick, status int, body []byte) outcome) {
	var wg sync.WaitGroup
	for ci, c := range conns {
		ticks := sched[ci]
		if len(ticks) == 0 {
			continue
		}
		// Sized to the number of sends, so the writer never waits on the
		// reader.
		inflight := make(chan sentTick, len(ticks))
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(inflight)
			for _, t := range ticks {
				if d := time.Until(t.due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				if err := c.send(t.req.head, t.req.body); err != nil {
					w.problem("send %s: %v", t.req.path(), err)
					return
				}
				inflight <- sentTick{tick: t, sent: sent, late: sent.Sub(t.due)}
			}
		}()
		go func() {
			defer wg.Done()
			broken := false
			for st := range inflight {
				if broken {
					w.record(st.sent, st.due, time.Now(), st.late, outcome{items: 1, failed: 1})
					continue
				}
				status, body, err := c.recv()
				done := time.Now()
				if err != nil {
					// Unblock the writer and fail what is still in flight.
					w.problem("recv %s: %v", st.req.path(), err)
					c.close()
					broken = true
					w.record(st.sent, st.due, done, st.late, outcome{items: 1, failed: 1})
					continue
				}
				w.record(st.sent, st.due, done, st.late, check(st.tick, status, body))
			}
		}()
	}
	wg.Wait()
}

// openStart fixes a schedule's start a little ahead of now, so the first
// sends are not late by construction, and marks the window's start.
func openStart(w *window, phase []time.Duration) time.Time {
	start := time.Now().Add(5 * time.Millisecond)
	first := phase[0]
	for _, p := range phase {
		if p < first {
			first = p
		}
	}
	if w.start.IsZero() {
		w.start = start.Add(first)
	}
	return start
}

// path extracts the request target from the head, for error messages.
func (r request) path() string {
	var method, target string
	if _, err := fmt.Sscanf(string(r.head), "%s %s", &method, &target); err != nil {
		return "?"
	}
	return method + " " + target
}
