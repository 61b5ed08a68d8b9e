package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
)

// client.go is the benchmark's HTTP/1.1 client: one raw TCP connection per
// sender, requests pre-encoded before timing starts, responses parsed with
// the standard library. Set-up and teardown calls wait for each response;
// the workloads pipeline — a writer goroutine sends on the schedule and never
// waits for replies, a reader goroutine takes the replies in order (the
// server answers a connection's requests in the order they were sent).

// conn is one client connection to the service.
type conn struct {
	nc net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

func (c *conn) close() { _ = c.nc.Close() }

// send writes one request (head and body parts) with a single writev.
func (c *conn) send(parts ...[]byte) error {
	bufs := net.Buffers(parts)
	_, err := bufs.WriteTo(c.nc)
	return err
}

// recv reads the next response on the connection.
func (c *conn) recv() (status int, body []byte, err error) {
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// request is one pre-encoded request: the head and the body are kept apart
// so many requests can share one body buffer.
type request struct {
	head []byte
	body []byte
}

func (r request) size() int { return len(r.head) + len(r.body) }

// newRequest encodes a request head; extra holds header name/value pairs.
func newRequest(method, path, contentType string, body []byte, extra ...string) request {
	var b strings.Builder
	b.WriteString(method + " " + path + " HTTP/1.1\r\nHost: perfbench\r\n")
	if body != nil {
		b.WriteString("Content-Type: " + contentType + "\r\n")
		b.WriteString("Content-Length: " + strconv.Itoa(len(body)) + "\r\n")
	}
	for i := 0; i+1 < len(extra); i += 2 {
		b.WriteString(extra[i] + ": " + extra[i+1] + "\r\n")
	}
	b.WriteString("\r\n")
	return request{head: []byte(b.String()), body: body}
}

// do sends r and waits for its response.
func (c *conn) do(r request) (int, []byte, error) {
	if err := c.send(r.head, r.body); err != nil {
		return 0, nil, err
	}
	return c.recv()
}

// httpRequest parses r into a server-side request, for driving a handler
// directly with the same bytes the client would send.
func (r request) httpRequest() (*http.Request, error) {
	raw := make([]byte, 0, r.size())
	raw = append(append(raw, r.head...), r.body...)
	return http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
}

// expectStatus turns a non-matching status into an error carrying the body.
func expectStatus(status, want int, body []byte) error {
	if status != want {
		if len(body) > 200 {
			body = body[:200]
		}
		return fmt.Errorf("status %d (want %d): %s", status, want, bytes.TrimSpace(body))
	}
	return nil
}
