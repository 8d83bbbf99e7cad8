package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"feww"
	"feww/internal/stream"
	"feww/internal/workload"
)

func newInsertServer(t *testing.T, cfg feww.EngineConfig, checkpoint string) (*Server, *httptest.Server, *Client) {
	t.Helper()
	eng, err := feww.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(NewInsertOnlyBackend(eng), Config{CheckpointPath: checkpoint})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return srv, ts, &Client{Base: ts.URL, HTTPClient: ts.Client()}
}

func testEngineCfg() feww.EngineConfig {
	return feww.EngineConfig{
		Config: feww.Config{N: 500, D: 50, Alpha: 2, Seed: 4},
		Shards: 4, BatchSize: 64,
	}
}

func TestIngestAndQuery(t *testing.T) {
	inst, err := workload.NewPlanted(workload.PlantedConfig{
		N: 500, M: 5000, Heavy: 2, HeavyDeg: 50,
		NoiseEdges: 2000, Order: workload.Shuffled, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, cl := newInsertServer(t, testEngineCfg(), "")

	resp, err := cl.Ingest(500, 5000, inst.Updates)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != int64(len(inst.Updates)) || resp.Total != int64(len(inst.Updates)) {
		t.Fatalf("ingest response %+v, want %d accepted", resp, len(inst.Updates))
	}

	// The assertions below demand every accepted update reflected, so they
	// use the ?fresh=1 barrier consistency; the published path is checked
	// for agreement right after.
	best, err := cl.BestFresh()
	if err != nil {
		t.Fatal(err)
	}
	if !best.Found {
		t.Fatal("no neighbourhood found after full ingest")
	}
	if err := inst.Verify(best.Neighbourhood.Vertex, best.Neighbourhood.Witnesses); err != nil {
		t.Fatal(err)
	}
	// The fresh read above took a barrier, so the published epochs now
	// cover the full stream and the default path must agree.
	published, err := cl.Best()
	if err != nil {
		t.Fatal(err)
	}
	if !published.Found || published.Neighbourhood.Vertex != best.Neighbourhood.Vertex {
		t.Fatalf("published /best %+v disagrees with fresh %+v after quiesce", published, best)
	}

	results, err := cl.ResultsFresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results after full ingest")
	}
	for _, nb := range results {
		if int64(nb.Size) < best.WitnessTarget {
			t.Fatalf("result %+v below witness target %d", nb, best.WitnessTarget)
		}
		if err := inst.Verify(nb.Vertex, nb.Witnesses); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := cl.StatsFresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Engine != "insert-only" || stats.Shards != 4 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.Consistency != "fresh" {
		t.Fatalf("stats.Consistency = %q, want fresh", stats.Consistency)
	}
	if stats.Elements != int64(len(inst.Updates)) {
		t.Fatalf("stats.Elements = %d, want %d", stats.Elements, len(inst.Updates))
	}
	if len(stats.QueueDepths) != 4 || len(stats.ViewEpochs) != 4 {
		t.Fatalf("stats.QueueDepths = %v, ViewEpochs = %v, want 4 entries each", stats.QueueDepths, stats.ViewEpochs)
	}
	if stats.SnapshotBytes <= 0 || stats.SpaceWords <= 0 {
		t.Fatalf("stats sizes not populated: %+v", stats)
	}
	pubStats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if pubStats.Consistency != "published" {
		t.Fatalf("stats.Consistency = %q, want published", pubStats.Consistency)
	}
}

func TestIngestRejectsMalformed(t *testing.T) {
	_, ts, cl := newInsertServer(t, testEngineCfg(), "")

	t.Run("garbage body", func(t *testing.T) {
		if _, err := cl.IngestStream(strings.NewReader("this is not FEWW")); err == nil {
			t.Fatal("garbage body accepted")
		}
	})
	t.Run("truncated body reports offset", func(t *testing.T) {
		var body bytes.Buffer
		if err := stream.WriteFile(&body, 500, 500, []feww.Update{stream.Ins(1, 2), stream.Ins(3, 4)}); err != nil {
			t.Fatal(err)
		}
		_, err := cl.IngestStream(bytes.NewReader(body.Bytes()[:body.Len()-1]))
		if err == nil {
			t.Fatal("truncated body accepted")
		}
		if !strings.Contains(err.Error(), "at byte") {
			t.Fatalf("rejection lacks byte offset: %v", err)
		}
	})
	t.Run("deletes rejected on insert-only", func(t *testing.T) {
		_, err := cl.Ingest(500, 500, []feww.Update{stream.Ins(1, 2), stream.Del(1, 2)})
		if err == nil {
			t.Fatal("deletion accepted by insertion-only engine")
		}
		if !strings.Contains(err.Error(), "turnstile") {
			t.Fatalf("rejection does not point at turnstile mode: %v", err)
		}
	})
	t.Run("out of universe", func(t *testing.T) {
		if _, err := cl.Ingest(1000, 1000, []feww.Update{stream.Ins(750, 2)}); err == nil {
			t.Fatal("item beyond engine N accepted")
		}
	})
	t.Run("rejected batch leaves engine untouched", func(t *testing.T) {
		before, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		cl.Ingest(500, 500, []feww.Update{stream.Ins(5, 5), stream.Del(5, 5)})
		after, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if after.Elements != before.Elements {
			t.Fatalf("rejected batch changed element count: %d -> %d", before.Elements, after.Elements)
		}
	})
	t.Run("get on ingest is 405", func(t *testing.T) {
		resp, err := ts.Client().Get(ts.URL + "/ingest")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /ingest: HTTP %d, want 405", resp.StatusCode)
		}
	})
}

func TestCheckpointEndpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "feww.ckpt")
	_, _, cl := newInsertServer(t, testEngineCfg(), path)

	if _, err := cl.Ingest(500, 500, []feww.Update{stream.Ins(1, 2), stream.Ins(1, 3)}); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Path != path || resp.Bytes <= 0 {
		t.Fatalf("checkpoint response %+v", resp)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != resp.Bytes {
		t.Fatalf("checkpoint file is %d bytes, response says %d", fi.Size(), resp.Bytes)
	}

	// The file must restore to an engine with the same element count.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := RestoreBackend(f)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Kind() != "insert-only" || b.Processed() != 2 {
		t.Fatalf("restored backend kind=%s processed=%d", b.Kind(), b.Processed())
	}

	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoints != 1 || stats.CheckpointBytes != resp.Bytes {
		t.Fatalf("stats after checkpoint: %+v", stats)
	}
}

func TestCheckpointWithoutPathIs400(t *testing.T) {
	_, _, cl := newInsertServer(t, testEngineCfg(), "")
	if _, err := cl.Checkpoint(); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("got %v, want HTTP 400", err)
	}
}

// TestSnapshotEndpointRoundTrip: the /snapshot bytes restore into a
// backend whose own snapshot is byte-identical — party i to party i+1
// over HTTP.
func TestSnapshotEndpointRoundTrip(t *testing.T) {
	inst, err := workload.NewPlanted(workload.PlantedConfig{
		N: 500, M: 5000, Heavy: 1, HeavyDeg: 50,
		NoiseEdges: 1000, Order: workload.Shuffled, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, cl := newInsertServer(t, testEngineCfg(), "")
	if _, err := cl.Ingest(500, 5000, inst.Updates); err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	n, err := cl.Snapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(snap.Len()) {
		t.Fatalf("Snapshot copied %d bytes, buffer has %d", n, snap.Len())
	}
	restored, err := RestoreBackend(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	var again bytes.Buffer
	if err := restored.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		t.Fatal("restored backend's snapshot differs from the transferred one")
	}
}

// TestIngestNegativeIDIs400: the FEWW wire format can carry a negative
// item id (uvarint round-trips the two's-complement bits), which used to
// reach the shard router and panic the handler via a negative modulo.
// The engine boundary must turn it into a clean 400 — with the accepted
// count — and the server must keep serving afterwards.
func TestIngestNegativeIDIs400(t *testing.T) {
	_, ts, cl := newInsertServer(t, testEngineCfg(), "")

	var body bytes.Buffer
	if err := stream.WriteFile(&body, 500, 500, []feww.Update{
		stream.Ins(1, 2),
		stream.Ins(-7, 3), // hostile: negative item id on the wire
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/ingest", "application/octet-stream", &body)
	if err != nil {
		t.Fatalf("request died instead of returning a status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative-id stream: HTTP %d, want 400", resp.StatusCode)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Error == "" {
		t.Fatal("400 response carries no error message")
	}
	// Chunk atomicity: the bad update shares a chunk with the good one, so
	// the whole chunk is rejected and nothing was accepted.
	if ir.Accepted != 0 {
		t.Fatalf("accepted = %d, want 0 (rejected chunk must not feed)", ir.Accepted)
	}
	// The shard workers survived: a valid ingest and a query still work.
	if _, err := cl.Ingest(500, 500, []feww.Update{stream.Ins(1, 2), stream.Ins(1, 3)}); err != nil {
		t.Fatalf("server unusable after rejected stream: %v", err)
	}
	if _, err := cl.StatsFresh(); err != nil {
		t.Fatalf("stats unusable after rejected stream: %v", err)
	}
}

// TestIngestOverCapIs413: a body longer than Config.MaxBodyBytes is the
// sender's size problem, not a malformed stream — it gets a 413 whose
// error still carries the decoder's ErrBadFormat text, and the chunks decoded
// before the cap stay applied and counted.
func TestIngestOverCapIs413(t *testing.T) {
	eng, err := feww.NewEngine(testEngineCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(NewInsertOnlyBackend(eng), Config{MaxBodyBytes: 64 << 10})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	// ~5 encoded bytes per update: the cap lands past the first chunk
	// and well before the end of the body.
	ups := make([]feww.Update, 3*ingestChunk)
	for i := range ups {
		ups[i] = stream.Ins(int64(100+i%400), int64(100+i/400))
	}
	var body bytes.Buffer
	if err := stream.WriteFile(&body, 500, 0, ups); err != nil {
		t.Fatal(err)
	}
	if body.Len() <= 64<<10 {
		t.Fatalf("test body is %d bytes, want it over the %d-byte cap", body.Len(), 64<<10)
	}
	resp, err := ts.Client().Post(ts.URL+"/ingest", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap body: HTTP %d (%s), want 413", resp.StatusCode, ir.Error)
	}
	if !strings.Contains(ir.Error, "request body too large") || !strings.Contains(ir.Error, stream.ErrBadFormat.Error()) {
		t.Errorf("413 error %q does not name both the decode failure and the body cap", ir.Error)
	}
	if ir.Accepted != ingestChunk || ir.Total != ingestChunk {
		t.Errorf("accepted/total = %d/%d, want %d/%d (the one full chunk before the cap)",
			ir.Accepted, ir.Total, ingestChunk, ingestChunk)
	}
}

// TestIngestDuringShutdownIs503: an /ingest racing Backend.Close gets a
// 503 (retry against the restarted instance), not a panic-killed
// connection.
func TestIngestDuringShutdownIs503(t *testing.T) {
	eng, err := feww.NewEngine(testEngineCfg())
	if err != nil {
		t.Fatal(err)
	}
	backend := NewInsertOnlyBackend(eng)
	srv := New(backend, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{Base: ts.URL, HTTPClient: ts.Client()}

	backend.Close() // shutdown wins the race

	var body bytes.Buffer
	if err := stream.WriteFile(&body, 500, 500, []feww.Update{stream.Ins(1, 2)}); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/ingest", "application/octet-stream", &body)
	if err != nil {
		t.Fatalf("request died instead of returning a status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest after Close: HTTP %d, want 503", resp.StatusCode)
	}
	// Queries stay up on the final published epochs.
	if _, err := cl.Best(); err != nil {
		t.Fatalf("query after Close: %v", err)
	}
}

// TestStatsNotBlockedByCheckpoint: /stats must answer while a (slow)
// checkpoint holds the checkpoint mutex — the counters are atomics and
// the default usage path reads published epochs, so nothing on the stats
// path may wait behind the disk.
func TestStatsNotBlockedByCheckpoint(t *testing.T) {
	srv, ts, cl := newInsertServer(t, testEngineCfg(), "")
	_ = ts

	srv.ckptMu.Lock() // simulate a checkpoint stuck on a slow disk
	defer srv.ckptMu.Unlock()

	done := make(chan error, 1)
	go func() {
		_, err := cl.Stats()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/stats blocked behind the checkpoint lock")
	}
}

// TestTurnstileServer drives the turnstile backend end to end: churn
// stream over HTTP, deletions included, then a query.
func TestTurnstileServer(t *testing.T) {
	inst, err := workload.NewChurn(workload.ChurnConfig{
		Planted: workload.PlantedConfig{
			N: 64, M: 128, Heavy: 2, HeavyDeg: 8,
			NoiseEdges: 80, MaxNoise: 2, Order: workload.Shuffled, Seed: 3,
		},
		ChurnEdges: 200,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := feww.NewTurnstileEngine(feww.TurnstileEngineConfig{
		TurnstileConfig: feww.TurnstileConfig{N: 64, M: 128, D: 8, Alpha: 2, Seed: 13, ScaleFactor: 0.02},
		Shards:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(NewTurnstileBackend(eng), Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer eng.Close()
	cl := &Client{Base: ts.URL, HTTPClient: ts.Client()}

	if _, err := cl.Ingest(64, 128, inst.Updates); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Engine != "turnstile" || stats.Elements != int64(len(inst.Updates)) {
		t.Fatalf("stats %+v", stats)
	}
	best, err := cl.BestFresh()
	if err != nil {
		t.Fatal(err)
	}
	if best.Found {
		if err := inst.Verify(best.Neighbourhood.Vertex, best.Neighbourhood.Witnesses); err != nil {
			t.Fatal(err)
		}
	}
}
