// Package memnet connects HTTP clients to http.Handlers by function call:
// a RoundTripper that looks the request's host up in a table of handlers
// and runs the handler on the caller's goroutine. There is no socket, no
// framing and no scheduler hop between client and server, so what a
// benchmark times through it is the program on both ends and nothing of
// the loopback device.
package memnet

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

// Recorder is a lean http.ResponseWriter that keeps what the handler
// wrote. Unlike httptest.ResponseRecorder it snapshots nothing and can be
// reused: Reset keeps the body buffer and the header map.
type Recorder struct {
	Code int
	Hdr  http.Header
	Body []byte
}

// Header returns the response header map.
func (r *Recorder) Header() http.Header {
	if r.Hdr == nil {
		r.Hdr = make(http.Header, 8)
	}
	return r.Hdr
}

// WriteHeader records the first status code.
func (r *Recorder) WriteHeader(code int) {
	if r.Code == 0 {
		r.Code = code
	}
}

// Write appends to the body; an implicit 200 as in net/http.
func (r *Recorder) Write(b []byte) (int, error) {
	if r.Code == 0 {
		r.Code = http.StatusOK
	}
	r.Body = append(r.Body, b...)
	return len(b), nil
}

// Reset readies the recorder for another response. Anything still holding
// the old Body or Hdr must have copied what it needs.
func (r *Recorder) Reset() {
	r.Code = 0
	r.Body = r.Body[:0]
	clear(r.Hdr)
}

// Status returns the response status (200 when the handler wrote nothing).
func (r *Recorder) Status() int {
	if r.Code == 0 {
		return http.StatusOK
	}
	return r.Code
}

// Transport is an http.RoundTripper over a table of in-process handlers.
// Register every host before the first request; the table is not locked.
type Transport struct {
	hosts map[string]*host
	bufs  sync.Pool // *body
}

type host struct {
	h     http.Handler
	trips atomic.Int64
}

// New returns an empty transport.
func New() *Transport {
	return &Transport{hosts: map[string]*host{}}
}

// Handle routes requests for host (the URL's host[:port] part) to h.
func (t *Transport) Handle(hostname string, h http.Handler) {
	t.hosts[hostname] = &host{h: h}
}

// Trips returns how many requests have been delivered to host.
func (t *Transport) Trips(hostname string) int64 {
	if h := t.hosts[hostname]; h != nil {
		return h.trips.Load()
	}
	return 0
}

// body is a response body whose buffer returns to the pool on Close. The
// client has copied the bytes out by then (http.Client users read to EOF
// and close), which is what makes reuse safe; the header map is handed to
// the client for good and is never reused.
type body struct {
	bytes.Reader
	rec Recorder
	t   *Transport
}

func (b *body) Close() error {
	b.rec.Hdr = nil
	b.rec.Reset()
	b.t.bufs.Put(b)
	return nil
}

// RoundTrip runs the host's handler on the calling goroutine and returns
// what it wrote. An unknown host is a transport error, as a refused
// connection would be.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := t.hosts[req.URL.Host]
	if h == nil {
		return nil, fmt.Errorf("memnet: no handler for host %q", req.URL.Host)
	}
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	h.trips.Add(1)
	b, _ := t.bufs.Get().(*body)
	if b == nil {
		b = &body{t: t}
	}
	in := req
	if in.Body == nil {
		// Handlers may read r.Body unconditionally; a server always
		// gives them one.
		served := *req
		served.Body = http.NoBody
		in = &served
	}
	h.h.ServeHTTP(&b.rec, in)
	if req.Body != nil {
		req.Body.Close()
	}
	b.Reader.Reset(b.rec.Body)
	return &http.Response{
		Status:        http.StatusText(b.rec.Status()),
		StatusCode:    b.rec.Status(),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        b.rec.Header(),
		Body:          b,
		ContentLength: int64(len(b.rec.Body)),
		Request:       req,
	}, nil
}
