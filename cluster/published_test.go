package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"feww"
	"feww/server"
)

// The conditional published read path: the gateway revalidates each
// group's last member answer by content ETag and reuses the merged
// bytes while no member answer changes.  None of these tests is
// -short-skipped, so they run in CI's race step.

// condMember is one fewwd member whose handler counts the 304 Not
// Modified replies it sends — the evidence that a gateway read went
// through revalidation instead of a full transfer.
type condMember struct {
	ts          *httptest.Server
	drain       func() error
	notModified atomic.Int64
}

type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func serveCondMember(t *testing.T, be server.Backend, drain func() error) *condMember {
	t.Helper()
	cm := &condMember{drain: drain}
	h := server.New(be, server.Config{}).Handler()
	cm.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &codeWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		if cw.code == http.StatusNotModified {
			cm.notModified.Add(1)
		}
	}))
	t.Cleanup(func() { cm.ts.Close(); be.Close() })
	return cm
}

func notModified(ms []*condMember) int64 {
	var n int64
	for _, m := range ms {
		n += m.notModified.Load()
	}
	return n
}

// fetchTagged GETs url, with If-None-Match when etag is set, and returns
// the status, ETag and body.
func fetchTagged(t *testing.T, url, etag string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
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
	return resp.StatusCode, resp.Header.Get("ETag"), body
}

// condKind is one engine kind's two-member cluster fixture: a member
// constructor over a range of rn items, the stream's witness universe,
// and two stream phases, the second of which changes both /best and
// /results.
type condKind struct {
	name           string
	m              int64
	member         func(t *testing.T, j int, rn int64) (server.Backend, func() error)
	phase1, phase2 []feww.Update
}

func condKinds() []condKind {
	const n, d = 40, 8
	return []condKind{
		{
			name: "insert-only",
			member: func(t *testing.T, j int, rn int64) (server.Backend, func() error) {
				eng, err := feww.NewEngine(feww.EngineConfig{
					Config: feww.Config{N: rn, D: d, Alpha: 1, Seed: uint64(j + 1)},
					Shards: j + 1, BatchSize: 8,
				})
				if err != nil {
					t.Fatal(err)
				}
				return server.NewInsertOnlyBackend(eng), eng.Drain
			},
			phase1: interleavedInserts(map[int64]int{25: 5}),
			phase2: interleavedInserts(map[int64]int{3: 9}),
		},
		{
			name: "star",
			m:    n,
			member: func(t *testing.T, j int, rn int64) (server.Backend, func() error) {
				eng, err := feww.NewStarEngine(feww.StarEngineConfig{
					N: rn, M: n, Alpha: 1, Eps: 0.5, Seed: uint64(j + 1), Shards: j + 1, BatchSize: 8,
				})
				if err != nil {
					t.Fatal(err)
				}
				return server.NewStarBackend(eng), eng.Drain
			},
			phase1: doubleCover([][2]int64{{25, 0}, {25, 1}, {25, 2}, {25, 4}}),
			phase2: doubleCover([][2]int64{
				{3, 10}, {3, 11}, {3, 12}, {3, 13}, {3, 14}, {3, 15},
				{3, 16}, {3, 17}, {3, 18}, {3, 19}, {3, 20}, {3, 21},
			}),
		},
		{
			name: "window",
			member: func(t *testing.T, j int, rn int64) (server.Backend, func() error) {
				eng, err := feww.NewWindowEngine(feww.WindowEngineConfig{
					Config: feww.Config{N: rn, D: d, Alpha: 1, Seed: uint64(j + 1)},
					Window: 40, Buckets: 4, Shards: j + 1, BatchSize: 8,
				})
				if err != nil {
					t.Fatal(err)
				}
				return server.NewWindowBackend(eng), eng.Drain
			},
			phase1: interleavedInserts(map[int64]int{25: 5}),
			phase2: interleavedInserts(map[int64]int{3: 10}),
		},
	}
}

// startCondCluster boots a gateway over groups × replicas members of
// the kind, over a 40-item universe.
func startCondCluster(t *testing.T, kc condKind, groups, replicas int) (*httptest.Server, [][]*condMember) {
	t.Helper()
	var urls []string
	members := make([][]*condMember, groups)
	for j, rng := range Split(40, groups) {
		for range replicas {
			be, drain := kc.member(t, j, rng.Len())
			cm := serveCondMember(t, be, drain)
			members[j] = append(members[j], cm)
			urls = append(urls, cm.ts.URL)
		}
	}
	g, err := New(Config{Members: urls, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	return serveGateway(t, g), members
}

func drainAll(t *testing.T, members []*condMember) {
	t.Helper()
	for _, m := range members {
		if err := m.drain(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGatewayConditionalReadsAllKinds, per kind:
//
//   - WHEN members are drained THEN a published gateway read equals the
//     uncached ?fresh=1 merge; a repeat read revalidates every group (one
//     member 304 each) and serves the same bytes under the same ETag;
//     and the gateway answers its own ETag with a bodyless 304;
//   - WHEN a member's state changes between two reads THEN the merged
//     answer changes with it: no stale merged bytes are served.
func TestGatewayConditionalReadsAllKinds(t *testing.T) {
	for _, kc := range condKinds() {
		t.Run(kc.name, func(t *testing.T) {
			gw, groups := startCondCluster(t, kc, 2, 1)
			members := []*condMember{groups[0][0], groups[1][0]}
			check := func(phase string) map[string][]byte {
				t.Helper()
				bodies := map[string][]byte{}
				for _, path := range []string{"/best", "/results"} {
					code, etag, body := fetchTagged(t, gw.URL+path, "")
					fresh := get(t, gw.URL+path+"?fresh=1", http.StatusOK)
					if code != http.StatusOK || !bytes.Equal(body, fresh) {
						t.Fatalf("%s: published %s HTTP %d\n%s\n!= uncached merge\n%s", phase, path, code, body, fresh)
					}
					before := notModified(members)
					code, etag2, body2 := fetchTagged(t, gw.URL+path, "")
					if code != http.StatusOK || etag2 != etag || !bytes.Equal(body2, body) {
						t.Fatalf("%s: repeat %s: HTTP %d, ETag %q (was %q), body changed: %v", phase, path, code, etag2, etag, !bytes.Equal(body2, body))
					}
					if got := notModified(members) - before; got != int64(len(members)) {
						t.Fatalf("%s: repeat %s revalidated %d groups with a 304, want %d", phase, path, got, len(members))
					}
					if code, _, b := fetchTagged(t, gw.URL+path, etag); code != http.StatusNotModified || len(b) != 0 {
						t.Fatalf("%s: %s with the gateway's ETag: HTTP %d, %d body bytes; want a bodyless 304", phase, path, code, len(b))
					}
					bodies[path] = body
				}
				return bodies
			}

			postStream(t, gw.URL, 40, kc.m, kc.phase1)
			drainAll(t, members)
			first := check("phase 1")
			postStream(t, gw.URL, 40, kc.m, kc.phase2)
			drainAll(t, members)
			second := check("phase 2")
			for path, b := range first {
				if bytes.Equal(b, second[path]) {
					t.Fatalf("%s did not change with the member state:\n%s", path, b)
				}
			}
		})
	}
}

// TestGatewayConditionalReadsSurviveReplicaDeath: WHEN a replica dies
// between conditional reads THEN the rotation falls over to a survivor,
// which revalidates the group's tag (content tags are replica-agnostic),
// and every merged answer equals the uncached merge — before and after
// further ingest changes the state.
func TestGatewayConditionalReadsSurviveReplicaDeath(t *testing.T) {
	kc := condKinds()[0]
	gw, groups := startCondCluster(t, kc, 2, 2)
	live := []*condMember{groups[0][0], groups[1][0], groups[1][1]}

	postStream(t, gw.URL, 40, kc.m, kc.phase1)
	drainAll(t, append(live, groups[0][1]))
	want := map[string][]byte{}
	for _, path := range []string{"/best", "/results"} {
		want[path] = get(t, gw.URL+path+"?fresh=1", http.StatusOK)
		for range 3 { // fill and rotate the group tags
			if b := get(t, gw.URL+path, http.StatusOK); !bytes.Equal(b, want[path]) {
				t.Fatalf("published %s\n%s\n!= uncached merge\n%s", path, b, want[path])
			}
		}
	}

	groups[0][1].ts.Close() // group 0's follower dies
	before := groups[0][0].notModified.Load()
	for i := range 4 {
		for _, path := range []string{"/best", "/results"} {
			if b := get(t, gw.URL+path, http.StatusOK); !bytes.Equal(b, want[path]) {
				t.Fatalf("read %d after the replica died: %s\n%s\n!= uncached merge\n%s", i, path, b, want[path])
			}
		}
	}
	if groups[0][0].notModified.Load() == before {
		t.Fatal("the surviving replica never revalidated the group's tag")
	}

	postStream(t, gw.URL, 40, kc.m, kc.phase2)
	drainAll(t, live)
	for _, path := range []string{"/best", "/results"} {
		fresh := get(t, gw.URL+path+"?fresh=1", http.StatusOK)
		if bytes.Equal(fresh, want[path]) {
			t.Fatalf("%s: phase 2 left the answer unchanged; the check needs a different stream", path)
		}
		for range 3 {
			if b := get(t, gw.URL+path, http.StatusOK); !bytes.Equal(b, fresh) {
				t.Fatalf("after ingest without the dead replica, published %s\n%s\n!= uncached merge\n%s", path, b, fresh)
			}
		}
	}
}

// TestGatewayConditionalReadsRejectKindSwap: WHEN a star member whose
// answers the gateway has been revalidating is swapped for a flat engine
// THEN its next published reply is a 200 with a new tag, and the query
// path's kind check turns it into a 502 instead of merging it.
func TestGatewayConditionalReadsRejectKindSwap(t *testing.T) {
	var star condKind
	for _, kc := range condKinds() {
		if kc.name == "star" {
			star = kc
		}
	}
	gw, groups := startCondCluster(t, star, 2, 1)
	members := []*condMember{groups[0][0], groups[1][0]}
	postStream(t, gw.URL, 40, star.m, star.phase1)
	drainAll(t, members)
	for range 2 {
		get(t, gw.URL+"/best", http.StatusOK)
		get(t, gw.URL+"/results", http.StatusOK)
	}
	if notModified(members) == 0 {
		t.Fatal("repeat reads never revalidated")
	}

	// An insert-only engine over member 1's range, holding a
	// full-target answer for vertex 1.
	eng, err := feww.NewEngine(feww.EngineConfig{Config: feww.Config{N: 20, D: 2, Alpha: 1, Seed: 1}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ProcessEdges([]feww.Edge{{A: 1, B: 5}, {A: 1, B: 6}, {A: 1, B: 7}}); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := eng.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	cl := server.Client{Base: groups[1][0].ts.URL}
	if _, err := cl.Restore(snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/best", "/results"} {
		if body := get(t, gw.URL+path, http.StatusBadGateway); !strings.Contains(string(body), "kind mismatch") {
			t.Fatalf("%s = %q, want a kind-mismatch rejection", path, body)
		}
	}
}
