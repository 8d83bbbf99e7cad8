package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"feww"
	"feww/internal/stream"
)

// nopWriter is a reusable no-op ResponseWriter.  Its header map lives
// across requests, so re-assigning the same header keys allocates
// nothing and an allocation count measures the handler alone.
type nopWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) WriteHeader(code int)        { w.code = code }
func (w *nopWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestPublishedQueryCacheHitAllocs gates the published read path: once
// /best and /results are encoded for the current epochs, serving them
// again — as a 200 or as a 304 to a matching If-None-Match — allocates
// nothing.  Skipped under -race, whose runtime allocates for its own
// bookkeeping; the non-race CI step enforces it.
func TestPublishedQueryCacheHitAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race runtime allocations are counted by AllocsPerRun; the non-race run enforces this gate")
	}
	eng, err := feww.NewEngine(feww.EngineConfig{
		Config: feww.Config{N: 1000, D: 500, Alpha: 1, Seed: 1},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	be := NewInsertOnlyBackend(eng)
	// Vertex 7 reaches the 500-witness target, as a served answer would.
	var ups []feww.Update
	for b := int64(0); b < 600; b++ {
		ups = append(ups, stream.Ins(7, b), stream.Ins(b%100, b))
	}
	if err := be.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	s := New(be, Config{})

	for _, tc := range []struct {
		name     string
		path     string
		handler  http.HandlerFunc
		revalid  bool // send the body's own ETag back
		wantCode int
	}{
		{"best", "/best", s.handleBest, false, http.StatusOK},
		{"results", "/results", s.handleResults, false, http.StatusOK},
		{"best-304", "/best", s.handleBest, true, http.StatusNotModified},
		{"results-304", "/results", s.handleResults, true, http.StatusNotModified},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, tc.path, nil)
			w := &nopWriter{h: http.Header{}}
			tc.handler(w, req) // the miss that fills the cache
			if w.code != http.StatusOK || w.n < 1000 {
				t.Fatalf("first %s: HTTP %d, %d body bytes", tc.path, w.code, w.n)
			}
			if tc.revalid {
				req.Header.Set("If-None-Match", w.h.Get("Etag"))
			}
			allocs := testing.AllocsPerRun(100, func() { tc.handler(w, req) })
			if w.code != tc.wantCode {
				t.Fatalf("cached %s: HTTP %d, want %d", tc.path, w.code, tc.wantCode)
			}
			if allocs != 0 {
				t.Fatalf("cached published %s allocates %.1f times per request, want 0", tc.path, allocs)
			}
		})
	}
}

// reply is one HTTP exchange's status, ETag and body.
type reply struct {
	code int
	etag string
	body []byte
}

func fetch(t *testing.T, url, ifNoneMatch string) reply {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return reply{code: resp.StatusCode, etag: resp.Header.Get("ETag"), body: body}
}

// TestPublishedBodyCacheAllKinds pins the published-body cache against
// staleness on every engine kind:
//
//   - WHEN ingest is interleaved with published reads (which fill the
//     cache at intermediate epochs) THEN after each Drain the published
//     body is byte-equal to the ?fresh=1 body, carries an ETag, and a
//     revalidation with that ETag is a bodyless 304;
//   - WHEN a reply is fresh THEN it carries no ETag and ignores
//     If-None-Match;
//   - WHEN POST /restore installs different state THEN the old ETag gets
//     a 200 with the restored body — even though the restored engine
//     restarts at the very epochs the old body was cached under.
func TestPublishedBodyCacheAllKinds(t *testing.T) {
	for _, tc := range kindCases(t) {
		t.Run(tc.kind, func(t *testing.T) {
			be, drain := tc.build(t)
			defer be.Close()
			s := New(be, Config{})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			// Cached before any ingest: epoch sum 0, the empty answers.
			empty := map[string]reply{}
			for _, path := range []string{"/best", "/results"} {
				empty[path] = fetch(t, ts.URL+path, "")
			}

			ups := append(append([]feww.Update(nil), tc.pre...), tc.post...)
			for i, u := range ups {
				if err := be.Ingest([]feww.Update{u}); err != nil {
					t.Fatal(err)
				}
				for _, path := range []string{"/best", "/results"} {
					if r := fetch(t, ts.URL+path, ""); r.code != http.StatusOK {
						t.Fatalf("update %d: published %s: HTTP %d", i, path, r.code)
					}
				}
				if i%3 != 2 && i != len(ups)-1 {
					continue
				}
				if err := drain(); err != nil {
					t.Fatal(err)
				}
				for _, path := range []string{"/best", "/results"} {
					pub := fetch(t, ts.URL+path, "")
					fresh := fetch(t, ts.URL+path+"?fresh=1", pub.etag)
					if fresh.code != http.StatusOK || fresh.etag != "" {
						t.Fatalf("update %d: fresh %s: HTTP %d, ETag %q; want 200 and no ETag", i, path, fresh.code, fresh.etag)
					}
					if !bytes.Equal(pub.body, fresh.body) {
						t.Fatalf("update %d: after Drain published %s\n%s\n!= fresh\n%s", i, path, pub.body, fresh.body)
					}
					if pub.etag == "" {
						t.Fatalf("update %d: published %s has no ETag", i, path)
					}
					if r := fetch(t, ts.URL+path, pub.etag); r.code != http.StatusNotModified || len(r.body) != 0 || r.etag != pub.etag {
						t.Fatalf("update %d: revalidating %s: HTTP %d, ETag %q, %d body bytes; want a bodyless 304", i, path, r.code, r.etag, len(r.body))
					}
				}
			}

			// Restore the full-stream state into a server whose cache
			// still holds the empty answers at epoch sum 0.
			var snap bytes.Buffer
			if err := be.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			fresh, _ := tc.build(t)
			defer fresh.Close()
			s2 := New(fresh, Config{})
			ts2 := httptest.NewServer(s2.Handler())
			defer ts2.Close()
			for _, path := range []string{"/best", "/results"} {
				if r := fetch(t, ts2.URL+path, ""); r.etag != empty[path].etag {
					t.Fatalf("empty %s of two engines of one kind differ: %q vs %q", path, r.etag, empty[path].etag)
				}
			}
			resp, err := http.Post(ts2.URL+"/restore", "application/octet-stream", &snap)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /restore: HTTP %d", resp.StatusCode)
			}
			for _, path := range []string{"/best", "/results"} {
				want := fetch(t, ts.URL+path+"?fresh=1", "")
				if bytes.Equal(want.body, empty[path].body) {
					t.Fatalf("%s: the fixture's stream leaves the empty answer; the restore check needs a different one", path)
				}
				r := fetch(t, ts2.URL+path, empty[path].etag)
				if r.code != http.StatusOK || !bytes.Equal(r.body, want.body) {
					t.Fatalf("after restore, %s with the pre-restore ETag: HTTP %d\n%s\nwant 200\n%s", path, r.code, r.body, want.body)
				}
			}
		})
	}
}

// TestPublishedBodyCacheConcurrentReaders: WHEN published readers race
// ingest (and each other) for the one cache slot THEN every reply is a
// complete answer whose ETag is the hash of exactly its own bytes.  Run
// under -race, this is the cache's data-race check.
func TestPublishedBodyCacheConcurrentReaders(t *testing.T) {
	eng, err := feww.NewEngine(feww.EngineConfig{
		Config: feww.Config{N: 64, D: 16, Alpha: 1, Seed: 3},
		Shards: 2, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	be := NewInsertOnlyBackend(eng)
	ts := httptest.NewServer(New(be, Config{}).Handler())
	defer ts.Close()

	// Ingest keeps publishing new epochs until every reader has made
	// its requests.
	stop := make(chan struct{})
	ingested := make(chan error, 1)
	go func() {
		for round := int64(0); ; round++ {
			select {
			case <-stop:
				ingested <- nil
				return
			default:
			}
			ups := make([]feww.Update, 0, 64)
			for v := int64(0); v < 64; v++ {
				ups = append(ups, stream.Ins(v, v*1_000_000+round))
			}
			if err := be.Ingest(ups); err != nil {
				ingested <- err
				return
			}
			be.Flush()
		}
	}()
	errs := make(chan error, 4)
	for r := range 4 {
		path := []string{"/best", "/results"}[r%2]
		go func() {
			errs <- func() error {
				for range 150 {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						return err
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						return err
					}
					sum := sha256.Sum256(body)
					if tag := `"` + hex.EncodeToString(sum[:16]) + `"`; resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != tag {
						return fmt.Errorf("%s: HTTP %d, ETag %q for a body hashing to %s", path, resp.StatusCode, resp.Header.Get("ETag"), tag)
					}
					if !json.Valid(body) {
						return fmt.Errorf("%s: torn body %q", path, body)
					}
				}
				return nil
			}()
		}()
	}
	for range 4 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	if err := <-ingested; err != nil {
		t.Fatal(err)
	}
}
