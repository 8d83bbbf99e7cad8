// Command fewwload replays a synthetic workload scenario against a
// running fewwd instance and reports the achieved ingest rate.  It is the
// load-generation half of the service pair: fewwd owns the engine,
// fewwload drives it over HTTP with the same generators the experiments
// use (internal/workload), so the planted ground truth is known and the
// served answer can be verified, not just timed.
//
// Usage:
//
//	fewwload -scenario zipf -n 100000 -edges 1000000 -d 2000
//	fewwload -scenario dos -n 20000 -d 3000 -heavy 3 -edges 80000
//	fewwload -scenario churn -n 500 -m 2000 -d 50 -edges 2000     (fewwd -algo turnstile)
//	fewwload -scenario planted -checkpoint-every 20 -verify
//	fewwload -scenario star -n 2000 -d 300 -edges 4000      (fewwd -algo star)
//	fewwload -scenario window -d 40 -edges 200000           (fewwd -algo window)
//	fewwload -queryclients 8              # poll /best concurrently during replay
//	fewwload -queryclients 8 -fresh       # same, on the ?fresh=1 barrier path
//	fewwload -gateway -addr http://127.0.0.1:9000   # drive a fewwgate cluster
//
// Scenarios: zipf (frequent items in a Zipf tail), planted (heavy
// vertices in Zipf noise), dos (victims receiving distinct-source
// floods), churn (planted structure under insert-then-delete noise;
// requires a turnstile fewwd), star (a general graph with a planted
// maximum-degree star streamed as directed half-edges; requires
// fewwd -algo star — or a fewwgate over star members, where the
// half-edges range-route by center and the merged answer is verified
// against the planted graph exactly like a single node), window (a
// rotating-heavy zipfian item stream shaped around the target's probed
// window geometry; requires fewwd -algo window, and verifies the served
// answers against an exact sliding-window recount — including, with
// alpha=1 and aligned geometry, exact set equality).
//
// With -gateway the target is a fewwgate cluster instead of a single
// node: the replay is unchanged (the gateway mirrors the fewwd endpoint
// surface and splits each request across its members), but readiness is
// checked against the cluster /healthz — every member must be serving
// its range — and the ground-truth verification runs against the merged
// cluster results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"feww/cluster"
	"feww/internal/benchstat"
	"feww/internal/stream"
	"feww/internal/workload"
	"feww/server"
)

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8080", "fewwd base URL")
		scenario  = flag.String("scenario", "zipf", "workload: zipf | planted | dos | churn | star | window")
		n         = flag.Int64("n", 100000, "item universe size |A|")
		m         = flag.Int64("m", 0, "witness universe size |B| (default 4n; zipf uses the stream length)")
		d         = flag.Int64("d", 2000, "heavy degree / frequency threshold")
		heavy     = flag.Int("heavy", 3, "planted heavy vertices (planted/dos/churn)")
		edges     = flag.Int("edges", 1000000, "stream length / noise edges")
		skew      = flag.Float64("skew", 1.2, "Zipf exponent")
		seed      = flag.Uint64("seed", 1, "workload seed")
		reqSize   = flag.Int("reqsize", 50000, "updates per /ingest request")
		ckptEvery = flag.Int("checkpoint-every", 0, "POST /checkpoint every k requests (0 = never)")
		verify    = flag.Bool("verify", true, "verify served witnesses against the planted ground truth")
		qClients  = flag.Int("queryclients", 0, "concurrent /best pollers running during the replay (0 = none)")
		qFresh    = flag.Bool("fresh", false, "pollers use /best?fresh=1 (barrier consistency) instead of the published path")
		gateway   = flag.Bool("gateway", false, "the target is a fewwgate cluster: check cluster readiness and verify against the merged results")
		ranges    = flag.Int("ranges", 0, "window: compose the stream as this many round-robin ranges (0 = the target's own range count; set it to feed a single node the byte-identical stream a gateway with that many ranges receives)")
	)
	flag.Parse()

	// The target is probed before the workload is generated: the window
	// scenario shapes its stream around the engine's window geometry (and,
	// against a gateway, its range partition), which only the target knows.
	cl := &server.Client{Base: *addr}
	var hz cluster.HealthzResponse
	if *gateway {
		var err error
		hz, err = gatewayHealth(*addr)
		if err != nil {
			log.Fatalf("fewwload: cannot reach fewwgate at %s: %v", *addr, err)
		}
		if !hz.Serving {
			for _, m := range hz.Members {
				if !m.Ready {
					log.Printf("fewwload: member %s serving %s not ready: %s", m.URL, m.Range, m.Error)
				}
			}
			log.Fatalf("fewwload: cluster at %s is not ready", *addr)
		}
		fmt.Printf("gateway: %s cluster, %d members, universe n=%d\n", hz.Engine, len(hz.Members), hz.N)
	} else if _, err := cl.Stats(); err != nil {
		log.Fatalf("fewwload: cannot reach fewwd at %s: %v", *addr, err)
	}

	var (
		inst             *workload.Planted
		streamN, streamM int64
		geom             *windowGeometry
		err              error
	)
	if *scenario == "window" {
		inst, streamN, streamM, geom, err = generateWindow(cl, hz, *gateway, *d, *edges, *skew, *seed, *ranges)
	} else {
		inst, streamN, streamM, err = generate(*scenario, *n, *m, *d, *heavy, *edges, *skew, *seed)
	}
	if err != nil {
		log.Fatal(err)
	}
	st := stream.Summarize(inst.Updates)
	fmt.Printf("workload: %s, %d updates (%d inserts, %d deletes), %d heavy, max degree %d\n",
		*scenario, st.Updates, st.Inserts, st.Deletes, len(inst.HeavyA), st.MaxDegreeA)

	// Optional concurrent query load: k pollers hammering /best while the
	// replay runs, measuring what the serving path sustains under ingest.
	stopPolling := make(chan struct{})
	var pollWG sync.WaitGroup
	samplers := make([]benchstat.Sampler, *qClients)
	for c := 0; c < *qClients; c++ {
		pollWG.Add(1)
		go func(c int) {
			defer pollWG.Done()
			for {
				select {
				case <-stopPolling:
					return
				default:
				}
				t0 := time.Now()
				var err error
				if *qFresh {
					_, err = cl.BestFresh()
				} else {
					_, err = cl.Best()
				}
				if err != nil {
					continue // transient; the replay loop reports hard failures
				}
				samplers[c].Observe(time.Since(t0))
			}
		}(c)
	}

	start := time.Now()
	var sent int64
	requests := 0
	for lo := 0; lo < len(inst.Updates); lo += *reqSize {
		hi := min(lo+*reqSize, len(inst.Updates))
		resp, err := cl.Ingest(streamN, streamM, inst.Updates[lo:hi])
		if err != nil {
			log.Fatalf("fewwload: request %d: %v", requests, err)
		}
		sent += resp.Accepted
		requests++
		if *ckptEvery > 0 && requests%*ckptEvery == 0 {
			ck, err := cl.Checkpoint()
			if err != nil {
				log.Fatalf("fewwload: checkpoint after request %d: %v", requests, err)
			}
			fmt.Printf("  checkpoint after %d updates: %d bytes\n", sent, ck.Bytes)
		}
	}
	elapsed := time.Since(start)
	close(stopPolling)
	pollWG.Wait()
	fmt.Printf("replayed %d updates in %d requests over %v: %.0f updates/sec\n",
		sent, requests, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
	if *qClients > 0 {
		all, queries := benchstat.Merge(samplers)
		mode := "published"
		if *qFresh {
			mode = "fresh"
		}
		fmt.Printf("query load (%s, %d clients): %d queries, %.0f q/s, p50 %v, p99 %v\n",
			mode, *qClients, queries, float64(queries)/elapsed.Seconds(),
			benchstat.Quantile(all, 0.50).Round(time.Microsecond),
			benchstat.Quantile(all, 0.99).Round(time.Microsecond))
	}

	stats, err := cl.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %s engine, %d shards, %d elements, %d space words, snapshot %d bytes, queues %v\n",
		stats.Engine, stats.Shards, stats.Elements, stats.SpaceWords, stats.SnapshotBytes, stats.QueueDepths)

	// The final answer is fetched on the barrier path: the ground-truth
	// verification below must see every replayed update reflected.
	if geom != nil {
		if err := verifyWindow(cl, inst, *geom, *d, sent, *verify); err != nil {
			log.Fatalf("fewwload: %v", err)
		}
		return
	}
	best, err := cl.BestFresh()
	if err != nil {
		log.Fatal(err)
	}
	if !best.Found {
		fmt.Println("result: no witnessed neighbourhood collected")
		os.Exit(1)
	}
	fmt.Printf("result: vertex %d with %d witnesses (target %d)\n",
		best.Neighbourhood.Vertex, best.Neighbourhood.Size, best.WitnessTarget)
	if *verify {
		if err := inst.Verify(best.Neighbourhood.Vertex, best.Neighbourhood.Witnesses); err != nil {
			log.Fatalf("fewwload: served witnesses FAILED verification: %v", err)
		}
		fmt.Println("verified: every served witness is a real edge of the generated stream")
	}
}

// gatewayHealth fetches and decodes a fewwgate /healthz, which carries
// the per-member readiness the single-node client does not model.  The
// probe gets its own deadline: a gateway that accepts the connection but
// never answers must fail the check, not hang the replay.
func gatewayHealth(base string) (cluster.HealthzResponse, error) {
	var out cluster.HealthzResponse
	hc := &http.Client{Timeout: 15 * time.Second}
	resp, err := hc.Get(strings.TrimRight(base, "/") + "/healthz")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	// 503 still carries the full per-member breakdown; decode either way.
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// windowGeometry is the window scenario's record of the target's
// configuration, read from its health probe: the (global) window length
// and bucket count, the witness target, and the cluster's range count
// (1 against a single node).
type windowGeometry struct {
	window, buckets, target int64
	ranges                  int
}

// generateWindow builds the window scenario around the probed target: a
// rotating-heavy zipfian stream whose head moves roughly once per window.
// Against a gateway the stream is composed of one item sequence per
// range, interleaved strictly round-robin, so each member sees every
// R-th update and the member windows of W/R compose into the global
// window the gateway reports.
func generateWindow(cl *server.Client, hz cluster.HealthzResponse, gateway bool, d int64, edges int, skew float64, seed uint64, rangesOverride int) (*workload.Planted, int64, int64, *windowGeometry, error) {
	geom := &windowGeometry{ranges: 1}
	var n int64
	if gateway {
		if rangesOverride > 0 {
			return nil, 0, 0, nil, fmt.Errorf("-ranges is for feeding a single node a cluster-shaped stream; a gateway's range count comes from its /healthz")
		}
		if hz.Engine != server.Window.Name {
			return nil, 0, 0, nil, fmt.Errorf("-scenario window needs a window cluster, target serves %q", hz.Engine)
		}
		n, geom.ranges = hz.N, hz.Groups
		geom.window, geom.buckets, geom.target = hz.Window, hz.WindowBuckets, hz.WitnessTarget
	} else {
		h, err := cl.Health()
		if err != nil {
			return nil, 0, 0, nil, err
		}
		if h.Engine != server.Window.Name {
			return nil, 0, 0, nil, fmt.Errorf("-scenario window needs fewwd -algo window, target serves %q", h.Engine)
		}
		n = h.N
		geom.window, geom.buckets, geom.target = h.Window, h.WindowBuckets, h.WitnessTarget
	}
	if geom.window < 1 || geom.buckets < 1 {
		return nil, 0, 0, nil, fmt.Errorf("target reports window geometry %d/%d", geom.window, geom.buckets)
	}
	r := int64(geom.ranges)
	if rangesOverride > 0 {
		// Compose the stream exactly as a gateway with this many ranges
		// would receive it, so a single full-universe node can be driven
		// with the byte-identical input and its answers byte-compared
		// against the cluster's.
		r = int64(rangesOverride)
	}
	if n%r != 0 {
		return nil, 0, 0, nil, fmt.Errorf("universe %d does not split evenly over %d ranges", n, r)
	}
	perPart := int64(edges) / r
	phases := max(2, int(perPart*r/geom.window))
	parts := make([][]int64, r)
	for i := int64(0); i < r; i++ {
		items, err := workload.WindowZipfItems(workload.WindowZipfConfig{
			N: n / r, Total: int(perPart), Phases: phases, Skew: skew, Seed: seed + uint64(i),
		})
		if err != nil {
			return nil, 0, 0, nil, err
		}
		parts[i] = items
	}
	inst, err := workload.ComposeWindowStream(n/r, parts)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	fmt.Printf("window: length %d over %d buckets, %d ranges, witness target %d, %d rotation phases\n",
		geom.window, geom.buckets, r, geom.target, phases)
	return inst, n, int64(len(inst.Updates)), geom, nil
}

// verifyWindow checks the served window answers against a sliding-window
// recount of the replayed stream.  Soundness holds unconditionally: every
// served witness must be a genuine in-window arrival position of its
// item, and every neighbourhood full-target.  When the target equals d
// (alpha = 1, the deterministic sample-everything regime) — and, against
// a cluster, when the geometry divides evenly enough for member windows
// to align with the global one — the served item set must *equal* the
// recount's >= d set exactly.
func verifyWindow(cl *server.Client, inst *workload.Planted, geom windowGeometry, d, sent int64, verify bool) error {
	width := (geom.window + geom.buckets - 1) / geom.buckets
	start := int64(0)
	if sent > geom.window {
		start = (sent - geom.window + width - 1) / width * width
	}
	nbs, err := cl.ResultsFresh()
	if err != nil {
		return err
	}
	recount := workload.WindowRecount(inst.Updates, start)
	var heavy []int64
	for a, c := range recount {
		if c >= d {
			heavy = append(heavy, a)
		}
	}
	fmt.Printf("result: window [%d, %d) of %d updates, %d items served, recount holds %d items >= %d\n",
		start, sent, sent, len(nbs), len(heavy), d)
	if !verify {
		return nil
	}
	served := make(map[int64]bool, len(nbs))
	for _, nb := range nbs {
		if int64(nb.Size) != geom.target {
			return fmt.Errorf("served item %d with %d witnesses, target is %d", nb.Vertex, nb.Size, geom.target)
		}
		if err := inst.Verify(nb.Vertex, nb.Witnesses); err != nil {
			return err
		}
		for _, b := range nb.Witnesses {
			if b < start || b >= sent {
				return fmt.Errorf("served witness %d of item %d outside the window [%d, %d): stale state survived expiry", b, nb.Vertex, start, sent)
			}
		}
		served[nb.Vertex] = true
	}
	exact := geom.target == d && (geom.ranges == 1 || geom.window%(int64(geom.ranges)*geom.buckets) == 0)
	if !exact {
		fmt.Println("verified: every served witness is a genuine in-window occurrence (exactness needs alpha=1 and aligned cluster geometry)")
		return nil
	}
	for _, a := range heavy {
		if !served[a] {
			return fmt.Errorf("item %d has %d in-window occurrences (>= %d) but was not served", a, recount[a], d)
		}
	}
	for a := range served {
		if recount[a] < d {
			return fmt.Errorf("served item %d has only %d in-window occurrences (< %d)", a, recount[a], d)
		}
	}
	fmt.Printf("verified: served set matches the sliding-window recount exactly (%d items), all witnesses in-window\n", len(heavy))
	return nil
}

// generate builds the requested scenario and returns it with the
// universe sizes the encoded stream should declare.
func generate(scenario string, n, m, d int64, heavy, edges int, skew float64, seed uint64) (*workload.Planted, int64, int64, error) {
	if m == 0 {
		m = 4 * n
	}
	switch scenario {
	case "zipf":
		inst := workload.ZipfItems(seed, n, edges, skew, d)
		return inst, n, int64(edges), nil
	case "planted":
		inst, err := workload.NewPlanted(workload.PlantedConfig{
			N: n, M: m, Heavy: heavy, HeavyDeg: d,
			NoiseEdges: edges, NoiseSkew: skew, MaxNoise: d / 3,
			Order: workload.Shuffled, Seed: seed,
		})
		return inst, n, m, err
	case "dos":
		cfg := workload.DoSConfig{
			Targets: n, Sources: max(n/10, 2), Window: 256,
			Victims: heavy, AttackReqs: d, Background: edges, Seed: seed,
		}
		inst, err := workload.NewDoS(cfg)
		return inst, n, cfg.BWidth(), err
	case "churn":
		inst, err := workload.NewChurn(workload.ChurnConfig{
			Planted: workload.PlantedConfig{
				N: n, M: m, Heavy: heavy, HeavyDeg: d,
				NoiseEdges: edges / 2, NoiseSkew: skew, MaxNoise: d / 3,
				Order: workload.Shuffled, Seed: seed,
			},
			ChurnEdges: edges,
			Seed:       seed,
		})
		return inst, n, m, err
	case "star":
		// A general graph streamed as its double cover: |A| = |B| = n
		// vertices, the planted center's degree is the d promise.
		inst, err := workload.NewStarGraph(workload.StarGraphConfig{
			Vertices: n, Degree: d, NoiseEdges: edges, MaxNoise: d / 3, Seed: seed,
		})
		return inst, n, n, err
	default:
		return nil, 0, 0, fmt.Errorf("fewwload: unknown scenario %q", scenario)
	}
}
