package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"hdc/internal/core"
	"hdc/internal/gesture"
	"hdc/internal/pipeline"
	"hdc/internal/scene"
	"hdc/internal/server"
)

// service is the system under test: server.New over core.NewSystem with the
// gesture endpoints on, exactly as hdcserve assembles it, served on an
// in-process loopback listener.
type service struct {
	sys  *core.System
	grec *gesture.Recognizer
	srv  *server.Server
	hs   *http.Server
	addr string
	done chan error // the Serve goroutine's result
}

// startService builds and serves the system. workers 0 takes the pool
// default (one worker per CPU).
func startService(workers int) (*service, error) {
	sys, err := core.NewSystem(
		core.WithSceneConfig(scene.Config{}),
		core.WithPipelineConfig(pipeline.Config{Workers: workers}),
		core.WithPoolLabel("perfbench"),
	)
	if err != nil {
		return nil, err
	}
	grec, err := gesture.NewRecognizer(gesture.Config{}, sys.Rend, scene.ReferenceView())
	if err != nil {
		sys.Close()
		return nil, fmt.Errorf("gesture templates: %w", err)
	}
	srv := server.New(sys, server.Options{MaxBatch: 256, Gesture: grec})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		sys.Close()
		return nil, err
	}
	s := &service{sys: sys, grec: grec, srv: srv, hs: &http.Server{Handler: srv}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop tears the service down in hdcserve's order: drain, shut the HTTP
// server (waiting for in-flight requests), close the server's sessions and
// graphs, then stop the system's pool.
func (s *service) stop() error {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	shutErr := s.hs.Shutdown(ctx)
	s.srv.Close()
	s.sys.Close()
	serveErr := <-s.done
	if shutErr != nil {
		return fmt.Errorf("shutdown: %w", shutErr)
	}
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", serveErr)
	}
	return nil
}

// get fetches a JSON document from the service into v over a fresh
// connection, so observation never shares a connection with the load.
func (s *service) get(path string, v any) error {
	c, err := dial(s.addr)
	if err != nil {
		return err
	}
	defer c.close()
	status, body, err := c.do(newRequest("GET", path, "", nil))
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if err := expectStatus(status, http.StatusOK, body); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// checkFramePool asserts every pooled frame the server handed out came back.
func (s *service) checkFramePool() error {
	var st server.StatsResponse
	if err := s.get("/statsz", &st); err != nil {
		return err
	}
	if st.FramePool.Gets != st.FramePool.Puts {
		return fmt.Errorf("frame pool unbalanced: %d gets, %d puts", st.FramePool.Gets, st.FramePool.Puts)
	}
	return nil
}

// awaitGoroutines waits for the goroutine count to fall back to base; a
// count still above it after the grace period is a leak.
func awaitGoroutines(base int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("goroutine leak: %d running, %d before set-up\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
