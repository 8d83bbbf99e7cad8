package cluster

// Replicated-group behaviour at the in-process level: synchronous
// fan-out correctness (every replica of a group byte-identical, accepted
// counts not double-counted), ingest surviving replica death mid-stream,
// published-read failover vs the fresh pin, reconciler re-seeding
// through the fault proxy, and the membership validation around replica
// groups.  The multi-process SIGKILL version of these guarantees lives
// in scripts/cluster_e2e.sh (chaos section).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"feww"
	"feww/internal/stream"
	"feww/server"
)

// encodeUpdates builds one FEWW binary body.
func encodeUpdates(t *testing.T, n, m int64, ups []feww.Update) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := stream.WriteFile(&body, n, m, ups); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

// startReplicatedInsertCluster boots a full-universe reference node plus
// groups x replicas insert-only members (consecutive runs of `replicas`
// URLs form a group, as the gateway defines them) and `spares` spare
// nodes, and a gateway over the lot.  Seeds and shard counts differ per
// replica: in the alpha=1 deterministic regime results must not depend
// on them, which is what makes replica byte-identity a meaningful check.
func startReplicatedInsertCluster(t *testing.T, n int64, groups, replicas int, d int64, spares int, tweak func(*Config)) (ref *node, g *Gateway, gw *httptest.Server, members [][]*node, spareNodes []*node) {
	t.Helper()
	dir := t.TempDir()
	refEng, err := feww.NewEngine(feww.EngineConfig{
		Config: feww.Config{N: n, D: d, Alpha: 1, Seed: 42},
		Shards: 4, BatchSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref = startNode(t, server.NewInsertOnlyBackend(refEng), dir, 99)

	var urls []string
	for j, rng := range Split(n, groups) {
		var grp []*node
		for k := 0; k < replicas; k++ {
			eng, err := feww.NewEngine(feww.EngineConfig{
				Config: feww.Config{N: rng.Len(), D: d, Alpha: 1, Seed: uint64(7 + j*replicas + k)},
				Shards: k + 1, BatchSize: 16 + j,
			})
			if err != nil {
				t.Fatal(err)
			}
			nd := startNode(t, server.NewInsertOnlyBackend(eng), dir, j*replicas+k)
			grp = append(grp, nd)
			urls = append(urls, nd.ts.URL)
		}
		members = append(members, grp)
	}
	for s := 0; s < spares; s++ {
		// A spare's engine is a placeholder: adoption re-seeds it from the
		// group primary through /restore, so its size is arbitrary.
		nd := newInsertNode(t, dir, 200+s, n)
		spareNodes = append(spareNodes, nd)
		urls = append(urls, nd.ts.URL)
	}
	cfg := Config{Members: urls, Replicas: replicas}
	if tweak != nil {
		tweak(&cfg)
	}
	g, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ref, g, serveGateway(t, g), members, spareNodes
}

// waitStatus polls the gateway's reconciler status until pred holds.
func waitStatus(t *testing.T, g *Gateway, timeout time.Duration, what string, pred func(ReconcilerStatus) bool) ReconcilerStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := g.Status()
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			buf, _ := json.Marshal(st)
			t.Fatalf("reconciler did not reach %q within %v: %s", what, timeout, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReplicatedFanOutByteIdentity(t *testing.T) {
	const n, d = 200, 10
	ref, _, gw, members, _ := startReplicatedInsertCluster(t, n, 2, 2, d, 0, nil)
	ups := interleavedInserts(map[int64]int{
		25: 30, 130: 12, 170: 9,
		3: 2, 55: 2, 101: 2, 160: 2, 199: 2,
	})
	postStream(t, ref.ts.URL, n, 0, ups)

	code, out := postIngest(t, gw.URL, encodeUpdates(t, n, 0, ups))
	if code != http.StatusOK {
		t.Fatalf("replicated ingest: HTTP %d: %s", code, out.Error)
	}
	// Accepted counts each update once, no matter how many replicas the
	// windows fanned out to.
	if out.Accepted != int64(len(ups)) || out.Total != int64(len(ups)) {
		t.Fatalf("replicated ingest accepted %d/%d, want %d/%d (replication must not double-count)",
			out.Accepted, out.Total, len(ups), len(ups))
	}
	// Every replica of a group holds the identical accepted stream, so
	// its fresh answers are byte-identical to its peer's.
	for j, grp := range members {
		for _, path := range []string{"/best", "/results", "/stats"} {
			want := get(t, grp[0].ts.URL+path+"?fresh=1", http.StatusOK)
			got := get(t, grp[1].ts.URL+path+"?fresh=1", http.StatusOK)
			if path == "/stats" {
				// Stats carry per-process fields (uptime, shard counts);
				// compare the element count only.
				var a, b server.StatsResponse
				if err := json.Unmarshal(want, &a); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(got, &b); err != nil {
					t.Fatal(err)
				}
				if a.Elements != b.Elements {
					t.Fatalf("group %d replicas diverged: %d vs %d elements", j, a.Elements, b.Elements)
				}
				continue
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("group %d replicas diverged on %s:\n%s\nvs\n%s", j, path, want, got)
			}
		}
	}
	// And the cluster as a whole matches the full-universe engine.
	freshEqual(t, &httptestURL{ref.ts.URL}, &httptestURL{gw.URL}, "/best")
	freshEqual(t, &httptestURL{ref.ts.URL}, &httptestURL{gw.URL}, "/results")
	// Published reads (any replica) agree too once ingest has drained.
	if got := clusterElements(t, gw.URL); got != int64(len(ups)) {
		t.Fatalf("cluster holds %d elements, want %d (primaries summed once)", got, len(ups))
	}
}

// ingestModes are the gateway's two /ingest reject boundaries: per
// window (the default) and per request (?atomic=1).  Both forward over
// the same replica streams, so replica failure must look the same.
var ingestModes = []struct{ name, query string }{
	{"default", ""},
	{"atomic", "?atomic=1"},
}

func TestReplicatedIngestSurvivesReplicaDeath(t *testing.T) {
	for _, mode := range ingestModes {
		t.Run(mode.name, func(t *testing.T) {
			testIngestSurvivesReplicaDeath(t, mode.query)
		})
	}
}

func testIngestSurvivesReplicaDeath(t *testing.T, query string) {
	const n, d = 120, 8
	ref, g, gw, members, _ := startReplicatedInsertCluster(t, n, 2, 2, d, 0, nil)
	ups := interleavedInserts(map[int64]int{10: 12, 70: 9, 100: 5, 30: 2, 90: 2})
	postStream(t, ref.ts.URL, n, 0, ups)

	// Kill group 0's follower.  The fan-out to it fails, it is marked
	// failed, and the request still accepts every update.
	members[0][1].close()
	code, out := postIngestQuery(t, gw.URL, query, encodeUpdates(t, n, 0, ups))
	if code != http.StatusOK {
		t.Fatalf("ingest with a dead follower: HTTP %d: %s", code, out.Error)
	}
	if out.Accepted != int64(len(ups)) {
		t.Fatalf("ingest with a dead follower accepted %d, want %d", out.Accepted, len(ups))
	}
	// The gateway noticed: the replica is failed in the status view and a
	// "fail" decision was recorded with the member's URL.
	st := g.Status()
	var failed int
	for _, gs := range st.Groups {
		for _, rs := range gs.Replicas {
			if rs.State == "failed" {
				failed++
				if rs.URL != members[0][1].ts.URL {
					t.Fatalf("failed replica is %s, want %s", rs.URL, members[0][1].ts.URL)
				}
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d replicas failed, want exactly 1", failed)
	}
	var sawFail bool
	for _, dec := range st.Decisions {
		if dec.Action == "fail" && dec.URL == members[0][1].ts.URL {
			sawFail = true
		}
	}
	if !sawFail {
		t.Fatalf("no 'fail' decision recorded for the dead follower; decisions: %+v", st.Decisions)
	}
	// The cluster stays in service — healthz still 200 (primaries fine),
	// published and fresh reads still answer, and results still match the
	// reference.
	get(t, gw.URL+"/healthz", http.StatusOK)
	get(t, gw.URL+"/best", http.StatusOK)
	freshEqual(t, &httptestURL{ref.ts.URL}, &httptestURL{gw.URL}, "/best")
	freshEqual(t, &httptestURL{ref.ts.URL}, &httptestURL{gw.URL}, "/results")
}

// TestReplicatedIngestWholeGroupDeath: when every replica of one group
// is dead, the request fails with 502, and its Accepted count is what
// the surviving group's members applied — never the dead group's share,
// never the replicas summed.
func TestReplicatedIngestWholeGroupDeath(t *testing.T) {
	for _, mode := range ingestModes {
		t.Run(mode.name, func(t *testing.T) {
			const n, d = 120, 8
			_, g, gw, members, _ := startReplicatedInsertCluster(t, n, 2, 2, d, 0, func(cfg *Config) {
				cfg.ChunkUpdates = 16 // the default path forwards several windows
			})
			ups := interleavedInserts(map[int64]int{10: 12, 70: 9, 100: 5, 30: 2, 90: 2})
			for _, nd := range members[0] {
				nd.close()
			}
			code, out := postIngestQuery(t, gw.URL, mode.query, encodeUpdates(t, n, 0, ups))
			if code != http.StatusBadGateway {
				t.Fatalf("ingest with range 0 dead: HTTP %d (%s), want 502", code, out.Error)
			}
			if out.Accepted == 0 {
				t.Fatalf("ingest with range 0 dead accepted nothing: range 1 must still receive its share (%s)", out.Error)
			}
			if got := clusterElements(t, gw.URL); out.Accepted != got {
				t.Fatalf("502 reports Accepted %d, the live primaries hold %d", out.Accepted, got)
			}
			// Range 1's replicas saw the same frames: neither was failed.
			for _, gs := range g.Status().Groups[1:] {
				for _, rs := range gs.Replicas {
					if rs.State != "live" {
						t.Fatalf("range 1 replica %s is %s after range 0 died, want live", rs.URL, rs.State)
					}
				}
			}
		})
	}
}

func TestReplicatedReadFailoverAndFreshPin(t *testing.T) {
	const n, d = 100, 8
	dir := t.TempDir()
	// One group, two replicas, each behind its own fault proxy so either
	// can be stalled independently of the other.
	var nodes []*node
	var proxies []*faultProxy
	var urls []string
	for k := 0; k < 2; k++ {
		eng, err := feww.NewEngine(feww.EngineConfig{
			Config: feww.Config{N: n, D: d, Alpha: 1, Seed: uint64(k + 1)},
			Shards: k + 1, BatchSize: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		nd := startNode(t, server.NewInsertOnlyBackend(eng), dir, k)
		p := newFaultProxy(t, nd.ts.Listener.Addr().String())
		nodes = append(nodes, nd)
		proxies = append(proxies, p)
		urls = append(urls, p.URL())
	}
	// Short member timeout: a stalled replica costs one timeout, then the
	// read fails over.
	g, err := New(Config{Members: urls, Replicas: 2, MemberTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gw := serveGateway(t, g)
	ups := interleavedInserts(map[int64]int{20: 12, 60: 6, 80: 2})
	postStream(t, gw.URL, n, 0, ups)

	// Stall the follower: every published read must still answer (the
	// rotation will hand some reads to the stalled replica first; those
	// fail over to the primary).
	proxies[1].stall()
	for i := 0; i < 4; i++ {
		get(t, gw.URL+"/best", http.StatusOK)
		get(t, gw.URL+"/results", http.StatusOK)
	}
	proxies[1].pass()

	// Stall the primary: published reads keep answering from the
	// follower, but ?fresh=1 is pinned to the primary by contract — it
	// reports the failure instead of silently serving from a replica that
	// might be behind.
	proxies[0].stall()
	for i := 0; i < 4; i++ {
		get(t, gw.URL+"/best", http.StatusOK)
	}
	get(t, gw.URL+"/best?fresh=1", http.StatusBadGateway)
	proxies[0].pass()
	get(t, gw.URL+"/best?fresh=1", http.StatusOK)
}

func TestReconcilerReseedsFailedFollower(t *testing.T) {
	const n, d = 100, 8
	dir := t.TempDir()
	// Primary direct, follower behind a fault proxy that will cut one
	// ingest stream mid-body.
	prim := newInsertNode(t, dir, 0, n)
	folEng, err := feww.NewEngine(feww.EngineConfig{
		Config: feww.Config{N: n, D: d, Alpha: 1, Seed: 5},
		Shards: 2, BatchSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	fol := startNode(t, server.NewInsertOnlyBackend(folEng), dir, 1)
	p := newFaultProxy(t, fol.ts.Listener.Addr().String())

	g, err := New(Config{Members: []string{prim.ts.URL, p.URL()}, Replicas: 2, ChunkUpdates: 64})
	if err != nil {
		t.Fatal(err)
	}
	gw := serveGateway(t, g)

	// Cut the follower's connection a couple of KiB into the next ingest
	// stream (once): the gateway must mark it failed and finish on the
	// primary alone.
	p.resetClientToServerAfter(2048, true)
	ups := interleavedInserts(map[int64]int{10: 12, 40: 9, 70: 6, 20: 3, 90: 3, 55: 2, 5: 2})
	// Pad the stream well past the reset budget so the cut lands
	// mid-body: distinct high witness ids that never displace the planted
	// structure under alpha=1.
	for i := 0; i < 5000; i++ {
		ups = append(ups, ins(int64(i)%n, int64(100000+i)))
	}
	code, out := postIngest(t, gw.URL, encodeUpdates(t, n, 0, ups))
	if code != http.StatusOK || out.Accepted != int64(len(ups)) {
		t.Fatalf("ingest through follower reset: HTTP %d accepted %d (%s), want 200/%d", code, out.Accepted, out.Error, len(ups))
	}
	if p.resetCount() != 1 {
		t.Fatalf("proxy reset %d streams, want 1 — the fault was not exercised", p.resetCount())
	}

	// The reconciler finds the follower failed-but-reachable and re-seeds
	// it from the primary (snapshot shipping through the now-clean
	// proxy).
	rec := g.StartReconciler(ReconcilerConfig{Interval: 25 * time.Millisecond, FailAfter: 2, ProbeTimeout: time.Second})
	defer rec.Stop()
	st := waitStatus(t, g, 10*time.Second, "all replicas live again", func(st ReconcilerStatus) bool {
		for _, gs := range st.Groups {
			for _, rs := range gs.Replicas {
				if rs.State != "live" {
					return false
				}
			}
		}
		return true
	})
	var sawReseed bool
	for _, dec := range st.Decisions {
		if dec.Action == "reseed" {
			sawReseed = true
		}
	}
	if !sawReseed {
		t.Fatalf("follower returned to live without a 'reseed' decision; decisions: %+v", st.Decisions)
	}

	// More traffic lands on both, and the follower is byte-identical to
	// the primary again — the re-seed really was an exact prefix.
	more := interleavedInserts(map[int64]int{10: 4, 80: 5, 33: 2})
	postStream(t, gw.URL, n, 0, more)
	for _, path := range []string{"/best", "/results"} {
		want := get(t, prim.ts.URL+path+"?fresh=1", http.StatusOK)
		got := get(t, fol.ts.URL+path+"?fresh=1", http.StatusOK)
		if !bytes.Equal(want, got) {
			t.Fatalf("re-seeded follower diverged on %s:\n%s\nvs\n%s", path, want, got)
		}
	}
}

func TestReplicatedMembershipValidation(t *testing.T) {
	const n = 60
	dir := t.TempDir()

	t.Run("too-few-members-for-replicas", func(t *testing.T) {
		nd := newInsertNode(t, dir, 0, n)
		_, err := New(Config{Members: []string{nd.ts.URL}, Replicas: 2})
		if err == nil || !strings.Contains(err.Error(), "replicas") {
			t.Fatalf("New with 1 member, 2 replicas: err = %v, want a replicas error", err)
		}
	})

	t.Run("unequal-replica-universes", func(t *testing.T) {
		a := newInsertNode(t, dir, 1, n)
		b := newInsertNode(t, dir, 2, n+10)
		_, err := New(Config{Members: []string{a.ts.URL, b.ts.URL}, Replicas: 2})
		if err == nil || !strings.Contains(err.Error(), "replica") {
			t.Fatalf("New with mismatched replica universes: err = %v, want a replica-sizing error", err)
		}
	})

	t.Run("dead-spare", func(t *testing.T) {
		a := newInsertNode(t, dir, 3, n)
		b := newInsertNode(t, dir, 4, n)
		sp := newInsertNode(t, dir, 5, n)
		sp.close()
		_, err := New(Config{Members: []string{a.ts.URL, b.ts.URL, sp.ts.URL}, Replicas: 2})
		if err == nil || !strings.Contains(err.Error(), "spare") {
			t.Fatalf("New with a dead spare: err = %v, want a spare error", err)
		}
	})
}

func TestRebalanceRefusedOnReplicatedGroup(t *testing.T) {
	const n, d = 80, 8
	_, _, gw, _, _ := startReplicatedInsertCluster(t, n, 1, 2, d, 0, nil)
	dir := t.TempDir()
	target := newInsertNode(t, dir, 9, n)
	// Replicated membership belongs to the reconciler; manual rebalance
	// of such a group is refused outright.
	postRebalance(t, gw.URL, RebalanceRequest{Range: 0, Target: target.ts.URL, Mode: "adopt"}, http.StatusConflict)
}
