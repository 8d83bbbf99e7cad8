package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"feww"
	"feww/server"
)

// Membership regression tests: a cluster must never merge answers across
// engine kinds.  Construction refuses a mixed member set outright, and a
// member whose kind is swapped out from under a running cluster (a
// foreign snapshot through POST /restore) is flagged by /healthz
// (not ready, 503) and by /stats (degraded, excluded from the sums) —
// merging an insert-only member's output with a turnstile or star
// member's would be silent garbage.

func newInsertNode(t *testing.T, dir string, idx int, n int64) *node {
	t.Helper()
	eng, err := feww.NewEngine(feww.EngineConfig{
		Config: feww.Config{N: n, D: 8, Alpha: 1, Seed: uint64(idx + 1)},
		Shards: 2, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return startNode(t, server.NewInsertOnlyBackend(eng), dir, idx)
}

func TestClusterRejectsMixedKinds(t *testing.T) {
	dir := t.TempDir()
	insertURL := newInsertNode(t, dir, 0, 50).ts.URL

	tEng, err := feww.NewTurnstileEngine(feww.TurnstileEngineConfig{
		TurnstileConfig: feww.TurnstileConfig{N: 50, M: 200, D: 8, Alpha: 1, Seed: 2, ScaleFactor: 0.3},
		Shards:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	turnstileURL := startNode(t, server.NewTurnstileBackend(tEng), dir, 1).ts.URL

	sEng, err := feww.NewStarEngine(feww.StarEngineConfig{N: 50, Alpha: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	starURL := startNode(t, server.NewStarBackend(sEng), dir, 2).ts.URL

	window80URL := newWindowNode(t, dir, 3, 50, 80).ts.URL
	window120URL := newWindowNode(t, dir, 4, 50, 120).ts.URL

	for _, tc := range []struct {
		name    string
		members []string
		want    string // what the refusal must name
	}{
		{"insert+turnstile", []string{insertURL, turnstileURL}, "engine"},
		{"insert+star", []string{insertURL, starURL}, "engine"},
		{"star+turnstile", []string{starURL, turnstileURL}, "engine"},
		{"insert+window", []string{insertURL, window80URL}, "engine"},
		{"window-geometry", []string{window80URL, window120URL}, "window"},
	} {
		if _, err := New(Config{Members: tc.members}); err == nil {
			t.Errorf("%s: gateway accepted a mixed-kind cluster", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error does not name the %s mismatch: %v", tc.name, tc.want, err)
		}
	}
}

func newWindowNode(t *testing.T, dir string, idx int, n, window int64) *node {
	t.Helper()
	eng, err := feww.NewWindowEngine(feww.WindowEngineConfig{
		Config: feww.Config{N: n, D: 8, Alpha: 1, Seed: uint64(idx + 1)},
		Window: window, Buckets: 4, Shards: 2, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return startNode(t, server.NewWindowBackend(eng), dir, idx)
}

func TestClusterFlagsKindSwappedMember(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	ranges := Split(n, 2)
	var urls []string
	var nodes []*node
	for j, rng := range ranges {
		nd := newInsertNode(t, dir, j, rng.Len())
		nodes = append(nodes, nd)
		urls = append(urls, nd.ts.URL)
	}
	g, err := New(Config{Members: urls})
	if err != nil {
		t.Fatal(err)
	}
	gw := serveGateway(t, g)

	// Healthy cluster first: /healthz 200, /stats not degraded.
	get(t, gw.URL+"/healthz", http.StatusOK)
	var st StatsResponse
	if err := json.Unmarshal(get(t, gw.URL+"/stats", http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Degraded {
		t.Fatalf("healthy cluster reports degraded: %+v", st)
	}

	// Swap member 1's engine for a *turnstile* engine over the same
	// universe slice via POST /restore — every universe parameter that
	// the old membership check looked at still matches; only the kind
	// differs.
	tEng, err := feww.NewTurnstileEngine(feww.TurnstileEngineConfig{
		TurnstileConfig: feww.TurnstileConfig{N: ranges[1].Len(), M: 1 << 20, D: 8, Alpha: 1, Seed: 9, ScaleFactor: 0.05},
		Shards:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := tEng.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	tEng.Close()
	cl := server.Client{Base: urls[1]}
	if _, err := cl.Restore(snap.Bytes()); err != nil {
		t.Fatal(err)
	}

	// /healthz: 503, the swapped member not ready, the error naming the
	// kind.
	var hz HealthzResponse
	if err := json.Unmarshal(get(t, gw.URL+"/healthz", http.StatusServiceUnavailable), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Serving {
		t.Fatal("cluster still reports serving with a kind-swapped member")
	}
	if m := hz.Members[1]; m.Ready || !strings.Contains(m.Error, "engine kind") {
		t.Fatalf("member 1 = %+v, want not-ready with a kind-mismatch error", m)
	}
	if !hz.Members[0].Ready {
		t.Fatalf("member 0 should stay ready: %+v", hz.Members[0])
	}

	// /stats: degraded, the swapped member excluded from the sums.
	if err := json.Unmarshal(get(t, gw.URL+"/stats", http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Degraded {
		t.Fatal("stats not degraded with a kind-swapped member")
	}
	if m := st.PerMember[1]; !strings.Contains(m.Error, "engine kind") {
		t.Fatalf("stats member 1 = %+v, want a kind-mismatch error", m)
	}
}

// TestClusterQueriesRejectStarSwappedMember: the query path itself must
// refuse a star-annotated answer inside a flat cluster.  The star merge
// gives rung priority, so without the guard the swapped member's answer
// would dominate /best (and evict every legitimate list from /results)
// no matter how small it is — silent garbage until someone polls
// /healthz.
func TestClusterQueriesRejectStarSwappedMember(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	ranges := Split(n, 2)
	var urls []string
	for j, rng := range ranges {
		urls = append(urls, newInsertNode(t, dir, j, rng.Len()).ts.URL)
	}
	g, err := New(Config{Members: urls})
	if err != nil {
		t.Fatal(err)
	}
	gw := serveGateway(t, g)

	// Give member 0 a legitimate full-target answer.
	var legit []feww.Update
	for k := int64(0); k < 8; k++ {
		legit = append(legit, ins(2, 100+k))
	}
	postStream(t, urls[0], ranges[0].Len(), 1<<20, legit)

	// Swap member 1 for a star engine holding a found star answer.
	sEng, err := feww.NewStarEngine(feww.StarEngineConfig{
		N: ranges[1].Len(), Alpha: 1, Seed: 3, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sEng.ProcessHalfEdges([]feww.Edge{{A: 1, B: 5}, {A: 5, B: 1}, {A: 1, B: 7}, {A: 7, B: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := sEng.Drain(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := sEng.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	sEng.Close()
	cl := server.Client{Base: urls[1]}
	if _, err := cl.Restore(snap.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Every query that would merge the star answer must 502 with a
	// kind-mismatch error instead of serving it.
	for _, path := range []string{"/best", "/best?fresh=1", "/results", "/results?fresh=1"} {
		body := get(t, gw.URL+path, http.StatusBadGateway)
		if !strings.Contains(string(body), "kind mismatch") {
			t.Fatalf("%s = %q, want a kind-mismatch rejection", path, body)
		}
	}
}
