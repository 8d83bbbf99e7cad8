package cluster

// Client retry semantics under injected connection resets, via the fault
// proxy.  The contract under test is PR 4's: a conn-refused request is
// always retried once (the body is replayable), a conn-reset request is
// retried only when idempotent — /ingest never, because the server may
// have applied part of the stream before the cut and a blind replay
// would double-apply it.

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"feww"
	"feww/server"
)

// hitCounter counts requests per path around a handler — the ground
// truth for "the server saw this request exactly once".
type hitCounter struct {
	h    http.Handler
	mu   sync.Mutex
	hits map[string]int
}

func (c *hitCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	if c.hits == nil {
		c.hits = make(map[string]int)
	}
	c.hits[r.URL.Path]++
	c.mu.Unlock()
	c.h.ServeHTTP(w, r)
}

func (c *hitCounter) count(path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits[path]
}

// startCountedNode boots one insert-only fewwd node with a request
// counter in front of its handler and a fault proxy in front of that.
func startCountedNode(t *testing.T, n int64) (*faultProxy, *hitCounter) {
	t.Helper()
	eng, err := feww.NewEngine(feww.EngineConfig{
		Config: feww.Config{N: n, D: 8, Alpha: 1, Seed: 1},
		Shards: 2, BatchSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := server.NewInsertOnlyBackend(eng)
	srv := server.New(b, server.Config{CheckpointPath: t.TempDir() + "/node.ckpt"})
	hc := &hitCounter{h: srv.Handler()}
	ts := httptest.NewServer(hc)
	t.Cleanup(func() { ts.Close(); b.Close() })
	return newFaultProxy(t, ts.Listener.Addr().String()), hc
}

// bigBatch builds an update batch whose encoding comfortably exceeds the
// proxy's reset budget, so the cut lands mid-body.
func bigBatch(n int64, count int) []feww.Update {
	ups := make([]feww.Update, count)
	for i := range ups {
		ups[i] = ins(int64(i)%n, int64(i))
	}
	return ups
}

func TestClientIngestNeverRetriesOnReset(t *testing.T) {
	const n = 1000
	p, hc := startCountedNode(t, n)
	// Cut the connection a few KiB into the request: far enough that the
	// headers (and the start of the body) reached the server — the
	// request *was* delivered, its effect is unknown — then RST.
	p.resetClientToServerAfter(4096, false)
	cl := &server.Client{Base: p.URL(), Timeout: 5 * time.Second}
	_, err := cl.Ingest(n, 0, bigBatch(n, 20000))
	if err == nil {
		t.Fatal("ingest through a mid-body reset succeeded, want error")
	}
	if p.resetCount() == 0 {
		t.Fatal("proxy never reset the connection; the fault was not exercised")
	}
	// The whole point: the client must NOT have re-sent the stream.  The
	// server saw exactly one /ingest request — whatever prefix it
	// applied, it applied once.  The client can see the proxy's RST
	// before the server goroutine has dispatched the delivered request,
	// so wait (bounded) for the dispatch before counting.
	for deadline := time.Now().Add(5 * time.Second); hc.count("/ingest") == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := hc.count("/ingest"); got != 1 {
		t.Fatalf("server saw %d /ingest requests after a reset, want exactly 1 (reset retry would double-apply)", got)
	}
}

func TestClientIdempotentGetRetriesOnReset(t *testing.T) {
	const n = 1000
	p, _ := startCountedNode(t, n)
	cl := &server.Client{Base: p.URL(), Timeout: 5 * time.Second}
	// Seed some state through the clean proxy first.
	if _, err := cl.Ingest(n, 0, bigBatch(n, 1000)); err != nil {
		t.Fatal(err)
	}
	// One transient reset: the first /best attempt dies, the automatic
	// retry (GETs are idempotent) goes through.
	p.resetClientToServerAfter(1, true)
	b, err := cl.Best()
	if err != nil {
		t.Fatalf("idempotent GET did not survive a single reset: %v", err)
	}
	if p.resetCount() != 1 {
		t.Fatalf("proxy reset %d connections, want 1 — the GET succeeded without the fault firing", p.resetCount())
	}
	_ = b
}

func TestClientNoRetryDisablesGetRetry(t *testing.T) {
	const n = 1000
	p, _ := startCountedNode(t, n)
	p.resetClientToServerAfter(1, true)
	cl := &server.Client{Base: p.URL(), Timeout: 5 * time.Second, NoRetry: true}
	if _, err := cl.Best(); err == nil {
		t.Fatal("NoRetry GET through a reset succeeded, want error")
	}
	if p.resetCount() != 1 {
		t.Fatalf("proxy reset %d connections, want 1", p.resetCount())
	}
}
