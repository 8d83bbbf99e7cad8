package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"feww"
	"feww/server"
)

// Span kinds: the bench client's requests, the gateway's handler, a
// node's (or member's) handler, and the calls a node makes into its
// engine through the server.Backend interface.
const (
	kindClient  = "client"
	kindGateway = "gateway"
	kindNode    = "node"
	kindBackend = "backend"
)

// idHeader links a client span to the handler span of the same request.
// The gateway does not forward it, so member spans are linked to the
// gateway span of the same path that contains them in time instead;
// each connection has one request in flight, so that is unambiguous.
const idHeader = "X-Request-Id"

// span is one timed call at a layer boundary.  Times are nanoseconds
// since the tracer started.
type span struct {
	Kind  string `json:"kind"`
	Op    string `json:"op"` // URL path, or the Backend method
	Node  int    `json:"node"`
	ID    uint64 `json:"id,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Bytes int64  `json:"bytes,omitempty"`
	// Updates is the batch size of a Backend.Ingest call.
	Updates int64 `json:"updates,omitempty"`
	Status  int   `json:"status,omitempty"`
	Fresh   bool  `json:"fresh,omitempty"`
	Atomic  bool  `json:"atomic,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) dur() int64         { return s.End - s.Start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func isFresh(r *http.Request) bool {
	v, err := strconv.ParseBool(r.URL.Query().Get("fresh"))
	return err == nil && v
}

// handler wraps a node's or the gateway's http.Handler, recording one
// span per request with the request body bytes read and the status.
func (t *tracer) handler(kind string, node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		body := &countingReader{r: r.Body}
		r.Body = body
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		id, _ := strconv.ParseUint(r.Header.Get(idHeader), 10, 64) // absent on member requests
		atomicIngest, _ := strconv.ParseBool(r.URL.Query().Get("atomic"))
		t.add(span{Kind: kind, Op: r.URL.Path, Node: node, ID: id, Start: start, End: t.now(),
			Bytes: body.n.Load(), Status: sw.status, Fresh: isFresh(r), Atomic: atomicIngest})
	})
}

type countingReader struct {
	r io.ReadCloser
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the real writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// tracedTransport is the bench client's RoundTripper: it tags each
// request with a fresh id and records a span from the send until the
// caller closes the reply body.
type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := tt.t.nextID.Add(1)
	req = req.Clone(req.Context())
	req.Header.Set(idHeader, strconv.FormatUint(id, 10))
	s := span{Kind: kindClient, Op: req.URL.Path, Node: -1, ID: id, Start: tt.t.now(), Fresh: isFresh(req)}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		s.End = tt.t.now()
		tt.t.add(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { s.End = tt.t.now(); tt.t.add(s) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// tracedBackend records a span around each engine call the measured
// traffic makes: Ingest and Flush (which blocks while the shard queues
// are full), Best, and Usage, whose fresh form is the barrier behind
// /stats?fresh=1.
type tracedBackend struct {
	server.Backend
	t    *tracer
	node int
}

func (b *tracedBackend) record(op string, fresh bool, start int64, updates int) {
	b.t.add(span{Kind: kindBackend, Op: op, Node: b.node, Start: start, End: b.t.now(), Fresh: fresh, Updates: int64(updates)})
}

func (b *tracedBackend) Ingest(ups []feww.Update) error {
	start := b.t.now()
	err := b.Backend.Ingest(ups)
	b.record("ingest", false, start, len(ups))
	return err
}

func (b *tracedBackend) Flush() {
	start := b.t.now()
	b.Backend.Flush()
	b.record("flush", false, start, 0)
}

func (b *tracedBackend) Best(fresh bool) server.BestAnswer {
	start := b.t.now()
	ans := b.Backend.Best(fresh)
	b.record("best", fresh, start, 0)
	return ans
}

func (b *tracedBackend) Usage(fresh bool) (int, int) {
	start := b.t.now()
	words, bytes := b.Backend.Usage(fresh)
	b.record("usage", fresh, start, 0)
	return words, bytes
}
