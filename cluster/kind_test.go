package cluster

import (
	"bytes"
	"net/http"
	"testing"

	"feww"
	"feww/internal/stream"
	"feww/server"
)

// TestGatewayUpdateChecksAllKinds pins the gateway's per-kind update
// validation over a two-range cluster of every engine kind: a deletion is
// refused (and reaches no member) unless the kind takes deletions, a
// witness at or past m is refused only where the witness universe is
// bounded, and a negative witness is refused everywhere.
func TestGatewayUpdateChecksAllKinds(t *testing.T) {
	const n = 50
	cases := []struct {
		kind      string
		member    func(t *testing.T, n int64) server.Backend
		deletions bool // the stream may carry deletions
		bounded   bool // witnesses must lie in [0, m)
	}{
		{kind: "insert-only", member: func(t *testing.T, rn int64) server.Backend {
			eng, err := feww.NewEngine(feww.EngineConfig{Config: feww.Config{N: rn, D: 8, Alpha: 1, Seed: 1}, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			return server.NewInsertOnlyBackend(eng)
		}},
		{kind: "turnstile", deletions: true, bounded: true, member: func(t *testing.T, rn int64) server.Backend {
			eng, err := feww.NewTurnstileEngine(feww.TurnstileEngineConfig{
				TurnstileConfig: feww.TurnstileConfig{N: rn, M: 200, D: 8, Alpha: 1, Seed: 2, ScaleFactor: 0.3},
				Shards:          1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return server.NewTurnstileBackend(eng)
		}},
		{kind: "star", bounded: true, member: func(t *testing.T, rn int64) server.Backend {
			eng, err := feww.NewStarEngine(feww.StarEngineConfig{N: rn, M: n, Alpha: 1, Seed: 3, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			return server.NewStarBackend(eng)
		}},
		{kind: "window", member: func(t *testing.T, rn int64) server.Backend {
			eng, err := feww.NewWindowEngine(feww.WindowEngineConfig{
				Config: feww.Config{N: rn, D: 8, Alpha: 1, Seed: 4}, Window: 80, Buckets: 4, Shards: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			return server.NewWindowBackend(eng)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			dir := t.TempDir()
			var urls []string
			for j, rng := range Split(n, 2) {
				urls = append(urls, startNode(t, tc.member(t, rng.Len()), dir, j).ts.URL)
			}
			g, err := New(Config{Members: urls})
			if err != nil {
				t.Fatal(err)
			}
			if g.Kind() != tc.kind {
				t.Fatalf("gateway kind %q, want %q", g.Kind(), tc.kind)
			}
			gw := serveGateway(t, g)
			_, m := g.Universe()

			// post sends ups as one request and checks the status and that
			// the members hold exactly elements afterwards.
			post := func(what string, ups []feww.Update, wantCode int, elements int64) {
				t.Helper()
				var body bytes.Buffer
				if err := stream.WriteFile(&body, n, m, ups); err != nil {
					t.Fatal(err)
				}
				if code, out := postIngest(t, gw.URL, body.Bytes()); code != wantCode {
					t.Fatalf("%s: HTTP %d (%s), want %d", what, code, out.Error, wantCode)
				}
				if got := clusterElements(t, gw.URL); got != elements {
					t.Fatalf("%s: members hold %d elements, want %d", what, got, elements)
				}
			}

			post("negative witness", []feww.Update{stream.Ins(3, 1), stream.Ins(3, -1)}, http.StatusBadRequest, 0)

			if tc.bounded {
				post("witness >= m", []feww.Update{stream.Ins(3, 1), stream.Ins(3, 1000)}, http.StatusBadRequest, 0)
			} else {
				post("witness >= m", []feww.Update{stream.Ins(3, 1), stream.Ins(3, 1000)}, http.StatusOK, 2)
			}

			held := clusterElements(t, gw.URL)
			if tc.deletions {
				post("deletion", []feww.Update{stream.Ins(4, 7), stream.Del(4, 7)}, http.StatusOK, held+2)
			} else {
				post("deletion", []feww.Update{stream.Ins(4, 7), stream.Del(4, 7)}, http.StatusBadRequest, held)
			}
		})
	}
}
