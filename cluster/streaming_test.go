package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feww"
	"feww/internal/stream"
	"feww/server"
)

// postIngest posts an encoded FEWW body to a gateway URL and decodes the
// IngestResponse regardless of status.
func postIngest(t *testing.T, url string, body []byte) (int, server.IngestResponse) {
	t.Helper()
	return postIngestQuery(t, url, "", body)
}

// postIngestQuery is postIngest with a query string (e.g. "?atomic=1").
func postIngestQuery(t *testing.T, url, query string, body []byte) (int, server.IngestResponse) {
	t.Helper()
	resp, err := http.Post(url+"/ingest"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	defer resp.Body.Close()
	var out server.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST /ingest: decoding response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// elements sums the members' applied element counts via the gateway's
// fresh stats, i.e. what the cluster engines really hold.
func clusterElements(t *testing.T, gw string) int64 {
	t.Helper()
	var st StatsResponse
	if err := json.Unmarshal(get(t, gw+"/stats?fresh=1", http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	return st.Elements
}

// startChunkedCluster boots k insert-only members and a gateway whose
// streaming window is tiny, so a short test stream spans many windows.
func startChunkedCluster(t *testing.T, n int64, k int, d int64, chunk int) (gw *httptest.Server, nodes []*node) {
	t.Helper()
	dir := t.TempDir()
	urls := make([]string, k)
	for j, rng := range Split(n, k) {
		eng, err := feww.NewEngine(feww.EngineConfig{
			Config: feww.Config{N: rng.Len(), D: d, Alpha: 1, Seed: uint64(7 + j)},
			Shards: j + 1, BatchSize: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		nd := startNode(t, server.NewInsertOnlyBackend(eng), dir, j)
		nodes = append(nodes, nd)
		urls[j] = nd.ts.URL
	}
	g, err := New(Config{Members: urls, ChunkUpdates: chunk})
	if err != nil {
		t.Fatal(err)
	}
	return serveGateway(t, g), nodes
}

// TestStreamingPartialAcceptOnMalformedUpdate pins the streaming
// boundary contract: a stream that goes invalid mid-body is rejected
// with HTTP 400, fully forwarded windows stay applied (Accepted reports
// exactly how many), and nothing at or past the invalid update's window
// is ever forwarded.
func TestStreamingPartialAcceptOnMalformedUpdate(t *testing.T) {
	const (
		n     = 90
		chunk = 10
		good  = 35 // 3 full windows forwarded, 5 updates dropped with the bad one
	)
	gw, _ := startChunkedCluster(t, n, 3, 5, chunk)

	ups := make([]feww.Update, 0, good+1+chunk)
	for i := 0; i < good; i++ {
		ups = append(ups, stream.Ins(int64(i%n), int64(i)))
	}
	ups = append(ups, stream.Ins(n+5, 0)) // out of universe: update #35, window 4
	for i := 0; i < chunk; i++ {
		ups = append(ups, stream.Ins(int64(i), 1000+int64(i)))
	}
	var body bytes.Buffer
	if err := stream.WriteFile(&body, n, 0, ups); err != nil {
		t.Fatal(err)
	}

	code, out := postIngest(t, gw.URL, body.Bytes())
	if code != http.StatusBadRequest {
		t.Fatalf("invalid stream: HTTP %d (%s), want 400", code, out.Error)
	}
	wantAccepted := int64(good / chunk * chunk) // only full windows were forwarded
	if out.Accepted != wantAccepted {
		t.Errorf("Accepted = %d, want %d (full windows before the invalid update)", out.Accepted, wantAccepted)
	}
	if got := clusterElements(t, gw.URL); got != wantAccepted {
		t.Errorf("members hold %d elements, want %d: updates at or past the invalid window must never be forwarded", got, wantAccepted)
	}
}

// TestStreamingAtomicRejectsWhole pins the ?atomic=1 contract the
// streaming default gave up: the same mid-body-invalid stream leaves
// every member untouched.
func TestStreamingAtomicRejectsWhole(t *testing.T) {
	const n = 90
	gw, _ := startChunkedCluster(t, n, 3, 5, 10)

	ups := make([]feww.Update, 0, 36)
	for i := 0; i < 35; i++ {
		ups = append(ups, stream.Ins(int64(i%n), int64(i)))
	}
	ups = append(ups, stream.Ins(n+5, 0))
	var body bytes.Buffer
	if err := stream.WriteFile(&body, n, 0, ups); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(gw.URL+"/ingest?atomic=1", "application/octet-stream", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("atomic invalid stream: HTTP %d, want 400", resp.StatusCode)
	}
	if got := clusterElements(t, gw.URL); got != 0 {
		t.Errorf("members hold %d elements after an atomic reject, want 0", got)
	}
}

// TestStreamingMatchesAtomic feeds the same valid stream through the
// streaming and the atomic path into two identically-configured clusters
// and requires byte-identical fresh query answers and identical applied
// counts — the two ingest modes must be observationally equivalent for
// accepted streams.
func TestStreamingMatchesAtomic(t *testing.T) {
	const (
		n = 120
		d = 6
	)
	mk := func() *httptest.Server {
		gw, _ := startChunkedCluster(t, n, 3, d, 16)
		return gw
	}
	gwStream, gwAtomic := mk(), mk()

	ups := make([]feww.Update, 0, 700)
	for i := 0; i < 600; i++ {
		ups = append(ups, stream.Ins(int64((i*7)%n), int64(i)))
	}
	for i := 0; i < 100; i++ { // drive a few vertices over the threshold
		ups = append(ups, stream.Ins(int64(i%4)*31, int64(2000+i)))
	}
	var body bytes.Buffer
	if err := stream.WriteFile(&body, n, 0, ups); err != nil {
		t.Fatal(err)
	}

	if code, out := postIngest(t, gwStream.URL, body.Bytes()); code != http.StatusOK || out.Accepted != int64(len(ups)) {
		t.Fatalf("streaming ingest: HTTP %d accepted %d (%s)", code, out.Accepted, out.Error)
	}
	resp, err := http.Post(gwAtomic.URL+"/ingest?atomic=1", "application/octet-stream", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("atomic ingest: HTTP %d", resp.StatusCode)
	}

	for _, path := range []string{"/best?fresh=1", "/results?fresh=1"} {
		a := get(t, gwStream.URL+path, http.StatusOK)
		b := get(t, gwAtomic.URL+path, http.StatusOK)
		if !bytes.Equal(a, b) {
			t.Errorf("GET %s differs between streaming and atomic ingest:\nstreaming: %s\natomic:    %s", path, a, b)
		}
	}
	if a, b := clusterElements(t, gwStream.URL), clusterElements(t, gwAtomic.URL); a != b {
		t.Errorf("applied elements differ: streaming %d, atomic %d", a, b)
	}
}

// countingReader counts how many bytes the gateway has pulled from the
// request body, exposing how far ahead of the members it is reading.
type countingReader struct {
	r    io.Reader
	read atomic.Int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.read.Add(int64(n))
	return n, err
}

// TestStreamingBackpressure pins the bounded-memory property: with one
// member refusing to consume its request body, the gateway's forward
// loop must block on the member's pipe and stop pulling the request
// body after a bounded prefix — it must not buffer the stream.
func TestStreamingBackpressure(t *testing.T) {
	const (
		n     = 100
		total = 8_000_000 // ~31 MiB encoded: far beyond kernel socket buffering
		chunk = 4096
	)
	eng, err := feww.NewEngine(feww.EngineConfig{
		Config: feww.Config{N: n, D: 10, Alpha: 1, Seed: 1},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	be := server.NewInsertOnlyBackend(eng)
	t.Cleanup(be.Close)
	srv := server.New(be, server.Config{})

	// The member stalls /ingest until released, consuming nothing; every
	// other endpoint (the gateway's construction probe) works normally.
	release := make(chan struct{})
	var releaseOnce sync.Once
	doRelease := func() { releaseOnce.Do(func() { close(release) }) }
	handler := srv.Handler()
	stalling := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/ingest" {
			<-release
		}
		handler.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(stalling)
	t.Cleanup(ts.Close)

	g, err := New(Config{Members: []string{ts.URL}, ChunkUpdates: chunk})
	if err != nil {
		t.Fatal(err)
	}
	gw := serveGateway(t, g)

	ups := make([]feww.Update, total)
	for i := range ups {
		ups[i] = stream.Ins(int64(i%n), int64(i%1000))
	}
	var body bytes.Buffer
	if err := stream.WriteFile(&body, n, 0, ups); err != nil {
		t.Fatal(err)
	}
	encoded := int64(body.Len())
	cr := &countingReader{r: &body}

	done := make(chan error, 1)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		req, err := http.NewRequest(http.MethodPost, gw.URL+"/ingest", io.Reader(cr))
		if err != nil {
			done <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			done <- fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg)
			return
		}
		done <- nil
	}()

	// Whatever the test's outcome, unwedge the member and wait for the
	// in-flight gateway request, or the servers' Close hangs on the
	// stalled connection.
	t.Cleanup(func() {
		doRelease()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
		}
	})

	// With the member stalled, the gateway's next frame write blocks once
	// the pipe and the member connection's kernel socket buffers are
	// full, and the pull of the request body stops.  Wait for it to
	// stabilise, then require that most of the body is still unread: a
	// buffering gateway reads the whole body before forwarding anything,
	// stalled member or not.  The bound is deliberately loose — kernel
	// autotuning can swallow several MiB — but far below the full body.
	var pulled, stable int64
	deadline := time.Now().Add(30 * time.Second)
	for stable < 5 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		if now := cr.read.Load(); now == pulled && now > 0 {
			stable++
		} else {
			pulled, stable = cr.read.Load(), 0
		}
	}
	if stable < 5 {
		t.Fatalf("gateway never stopped pulling the body while the member was stalled (%d of %d bytes)", pulled, encoded)
	}
	if pulled > encoded*2/3 {
		t.Fatalf("gateway pulled %d of the %d-byte body while the member was stalled: no backpressure", pulled, encoded)
	}
	doRelease()
	if err := <-done; err != nil {
		t.Fatalf("ingest after release: %v", err)
	}
	if got := clusterElements(t, gw.URL); got != total {
		t.Errorf("members hold %d elements, want %d", got, total)
	}
}

// TestStreamingOverCapIs413 pins the body-cap contract of both reject
// boundaries: a body longer than Config.MaxBodyBytes is answered 413, not
// 400 — by default after the windows decoded before the cap were
// forwarded (Accepted counts them, and the members hold exactly those),
// with ?atomic=1 before any member saw a byte.
func TestStreamingOverCapIs413(t *testing.T) {
	const (
		n     = 90
		chunk = 10
		whole = 35 // updates decoded in full before the cap
	)
	ups := make([]feww.Update, 200)
	for i := range ups {
		ups[i] = stream.Ins(int64(i%n), int64(i/n))
	}
	body := encodeUpdates(t, n, 0, ups)
	// Header: magic, version, n, m (one byte each) and a two-byte count;
	// then 3 bytes per update, every id below 128.
	const header = 4 + 1 + 1 + 1 + 2
	if len(body) != header+3*len(ups) {
		t.Fatalf("body is %d bytes, want %d: the cap arithmetic below is off", len(body), header+3*len(ups))
	}
	for _, tc := range []struct {
		mode, query string
		accepted    int64
	}{
		{"default", "", whole / chunk * chunk},
		{"atomic", "?atomic=1", 0},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			_, nodes := startChunkedCluster(t, n, 3, 5, chunk)
			urls := make([]string, len(nodes))
			for j, nd := range nodes {
				urls[j] = nd.ts.URL
			}
			g, err := New(Config{Members: urls, ChunkUpdates: chunk, MaxBodyBytes: header + 3*whole + 1})
			if err != nil {
				t.Fatal(err)
			}
			gw := serveGateway(t, g)

			resp, err := http.Post(gw.URL+"/ingest"+tc.query, "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out server.IngestResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("over-cap body: HTTP %d (%s), want 413", resp.StatusCode, out.Error)
			}
			if out.Accepted != tc.accepted {
				t.Errorf("Accepted = %d, want %d", out.Accepted, tc.accepted)
			}
			if got := clusterElements(t, gw.URL); got != tc.accepted {
				t.Errorf("members hold %d elements, want %d", got, tc.accepted)
			}
		})
	}
}
