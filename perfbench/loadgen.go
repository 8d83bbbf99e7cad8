package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"syscall"
	"time"

	"feww/server"
)

// conn is one client connection: a transport allowed a single TCP
// connection, so each load stream has exactly one request in flight.
type conn struct {
	hc *http.Client
	tr *http.Transport
}

func newConn(t *tracer) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	var rt http.RoundTripper = tr
	if t != nil {
		rt = &tracedTransport{t: t, base: tr}
	}
	return &conn{hc: &http.Client{Transport: rt}, tr: tr}
}

// get fetches url and returns the status and the whole body.
func (c *conn) get(url string) (int, []byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getJSON fetches url and decodes a 200 reply into v.
func (c *conn) getJSON(url string, v any) error {
	status, body, err := c.get(url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", url, status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// ingest posts one pre-encoded body and checks that every update in it
// was accepted.
func (c *conn) ingest(url string, body []byte, updates int) error {
	resp, err := c.hc.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out server.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("ingest: HTTP %d: decoding reply: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || out.Accepted != int64(updates) {
		return fmt.Errorf("ingest: HTTP %d: accepted %d of %d: %s", resp.StatusCode, out.Accepted, updates, out.Error)
	}
	return nil
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// sleepUntil blocks until t.  It sleeps in the nanosleep system call,
// not time.Sleep: the Go runtime rounds a timer under a millisecond up
// to a whole millisecond when the process is otherwise idle, which
// would make the open-loop schedule (one query every 0.5 ms) slip by
// more when the system under test is faster.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// load is what one load stream observed.
type load struct {
	attempted, failed int
	errs              []error
	lag               []time.Duration // open-loop sends only
	// sampled holds published /best replies kept for the checker, which
	// runs after the measured CPU window (see phase.absorb).
	sampled []sampledBest
	check   func(server.BestResponse, int) error
}

// sampledBest is a published /best reply body and the number of updates
// sent before it arrived, which bounds the witnesses it may hold.
type sampledBest struct {
	body []byte
	upto int
}

func (l *load) fail(err error) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err)
	}
}

// runIngest sends every body of in once, in order: back to back when
// the workload is closed loop, else body i at start + i × interval.
// Before each send it publishes in sent how many updates have been
// sent, which bounds what a concurrent reader may see.
func (s *spec) runIngest(c *conn, url string, in *input, start time.Time, sent *atomic.Int64, lat *latencies) load {
	var l load
	prevDone := start
	for i, body := range in.bodies {
		lo := i * s.body
		n := min(s.body, len(in.ups)-lo)
		due := time.Now()
		if s.pace > 0 {
			due = start.Add(time.Duration(i) * s.ingestInterval())
			sleepUntil(due)
		}
		target := url + "/ingest"
		if s.atomicEvery > 0 && i%s.atomicEvery == s.atomicEvery-1 {
			target += "?atomic=1"
		}
		sent.Store(int64(lo + n))
		sendAt := time.Now()
		if s.pace > 0 {
			l.lag = append(l.lag, generatorLag(due, prevDone, sendAt))
		}
		l.attempted++
		err := c.ingest(target, body, n)
		prevDone = time.Now()
		lat.add(dueLatency(due, prevDone))
		if err != nil {
			l.fail(err)
		}
	}
	return l
}

// queryLat holds one query stream's latencies by class.
type queryLat struct {
	published, fresh latencies
}

// runQueries drives mix from start, until stop reads true when it has no
// count.  Every tenth published /best reply is kept with the number of
// updates sent before it arrived, for check to judge later: decoding
// and checking it here would put the generator's work into the CPU
// figures of the stack.
func runQueries(c *conn, url string, mix queryMix, start time.Time, stop *atomic.Bool, sent *atomic.Int64,
	q *queryLat, check func(server.BestResponse, int) error) load {
	l := load{check: check}
	prevDone := start
	published := 0
	for k := 0; ; k++ {
		if mix.count > 0 && k == mix.count || mix.count == 0 && stop.Load() {
			return l
		}
		due := start.Add(time.Duration(float64(k) / mix.rate * float64(time.Second)))
		sleepUntil(due)
		path, fresh := "/best", false
		if mix.freshEvery > 0 && k%mix.freshEvery == 0 {
			path, fresh = "/best?fresh=1", true
		}
		sendAt := time.Now()
		l.lag = append(l.lag, generatorLag(due, prevDone, sendAt))
		l.attempted++
		status, body, err := c.get(url + path)
		prevDone = time.Now()
		if fresh {
			q.fresh.add(dueLatency(due, prevDone))
		} else {
			q.published.add(dueLatency(due, prevDone))
		}
		switch {
		case err != nil:
			l.fail(err)
		case status != http.StatusOK:
			l.fail(fmt.Errorf("GET %s: HTTP %d: %s", path, status, bytes.TrimSpace(body)))
		case !fresh:
			if published++; published%10 != 0 {
				continue
			}
			l.sampled = append(l.sampled, sampledBest{body: body, upto: int(sent.Load())})
		}
	}
}
