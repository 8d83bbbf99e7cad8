package main

import (
	"bytes"
	"fmt"
	"time"

	"feww"
	"feww/internal/stream"
	"feww/internal/workload"
)

// queryMix is an open-loop stream of /best queries on its own
// connection: query k is due at k/rate seconds after the stream starts
// and asks for ?fresh=1 when freshEvery > 0 divides k.  A stream with a
// count sends that many queries; one without runs until ingest ends.
type queryMix struct {
	rate       float64
	freshEvery int
	count      int
}

// spec is one named workload: the stack it builds and the traffic it
// drives.  Every field is fixed here; only the stream content comes from
// the seed.
type spec struct {
	name      string
	turnstile bool
	// Engine parameters of every node.
	n, m, d int64
	alpha   int
	scale   float64
	shards  int
	// ranges > 0 builds ranges × replicas single-node members behind a
	// cluster gateway instead of one node.
	ranges, replicas int
	// Stream: length updates per repetition (insert-only kinds), sent
	// body updates per /ingest request.
	length int
	body   int
	// pace > 0 sends ingest open loop at pace updates/s; 0 is closed loop.
	pace float64
	// atomicEvery > 0 sends every atomicEvery-th request with ?atomic=1.
	atomicEvery int
	// reads run beside ingest (rate 0: none).  The probe runs after the
	// ingest barrier on every workload; it alone gives query_cpu_us.
	reads, probe queryMix
}

// The four workloads.  Their reasons are recorded in BENCHMARK.json.
// The insert-only workloads send serve's 8192 updates per request,
// which is also the gateway's default streaming chunk
// (cluster.Config.ChunkUpdates), so ingest and serve differ only in
// pacing and reads, and the gateway forwards each request as one chunk.
// No read mix sends /results: one answer holds every full-target
// neighbourhood, about a megabyte of JSON and 13 ms to serve by the end
// of the insert-only stream, so at serve's one in ten it would saturate
// the single query connection, and even at one in two hundred the
// queries queued behind it decide the median.  The final check reads it.
var specs = map[string]*spec{
	"ingest": {
		name: "ingest", n: 1 << 18, d: 1000, alpha: 2, shards: 2,
		length: 1 << 21, body: 8192,
		probe: queryMix{rate: 2000, count: 500},
	},
	"serve": {
		name: "serve", n: 1 << 18, d: 1000, alpha: 2, shards: 2,
		length: 1 << 21, body: 8192, pace: 1e6,
		reads: queryMix{rate: 2000, freshEvery: 50},
		probe: queryMix{rate: 2000, count: 500},
	},
	"gateway": {
		name: "gateway", n: 1 << 18, d: 1000, alpha: 2, shards: 1, ranges: 3, replicas: 2,
		length: 1 << 21, body: 8192, atomicEvery: 4,
		probe: queryMix{rate: 200, count: 100},
	},
	"turnstile": {
		name: "turnstile", turnstile: true, n: 256, m: 1024, d: 32, alpha: 2, scale: 0.01, shards: 2,
		// 256-update requests never fill the shard queues, so each shard
		// applies the stream without idling and the number of view
		// rebuilds (an L0 recovery pass each) does not depend on timing.
		body:  256,
		probe: queryMix{rate: 2000, count: 500},
	},
}

// Churn shape of the turnstile stream: planted vertices of degree d,
// noise capped below the witness target so only a planted vertex can be
// a correct answer, and churn edges inserted then deleted.
const (
	churnPlanted  = 2
	churnNoise    = 400
	churnMaxNoise = 12
	churnEdges    = 300
)

// zipfSkew is the item distribution of the insert-only stream.
const zipfSkew = 1.2

// input is one seed's generated stream, pre-encoded into request bodies
// so the generator spends no time encoding while it measures.
type input struct {
	ups    []feww.Update
	bodies [][]byte
	bytes  int
	// expect is the item a correct final answer must contain: the most
	// frequent item (insert-only) or any planted vertex (turnstile).
	expect []int64
	// live is the final edge set of a turnstile stream; insert-only
	// streams need none, as witness t is real for item a iff ups[t].A == a.
	live map[feww.Edge]bool
}

func (s *spec) generate(seed uint64) (*input, error) {
	in := &input{}
	if s.turnstile {
		p, err := workload.NewChurn(workload.ChurnConfig{
			Planted: workload.PlantedConfig{
				N: s.n, M: s.m, Heavy: churnPlanted, HeavyDeg: s.d,
				NoiseEdges: churnNoise, MaxNoise: churnMaxNoise, Seed: seed,
			},
			ChurnEdges: churnEdges,
			Seed:       seed,
		})
		if err != nil {
			return nil, err
		}
		in.ups, in.expect, in.live = p.Updates, p.HeavyA, p.Truth
	} else {
		p := workload.ZipfItems(seed, s.n, s.length, zipfSkew, s.d)
		in.ups, in.expect = p.Updates, []int64{heaviest(s.n, p.Updates)}
	}
	for lo := 0; lo < len(in.ups); lo += s.body {
		var buf bytes.Buffer
		if err := stream.WriteFile(&buf, s.n, s.m, in.ups[lo:min(lo+s.body, len(in.ups))]); err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, buf.Bytes())
		in.bytes += buf.Len()
	}
	return in, nil
}

// heaviest returns the most frequent item of ups over [0, n), the
// smallest id among ties.
func heaviest(n int64, ups []feww.Update) int64 {
	freq := make([]int32, n)
	for _, u := range ups {
		freq[u.A]++
	}
	top := 0
	for a, f := range freq {
		if f > freq[top] {
			top = a
		}
	}
	return int64(top)
}

// real reports whether (a, b) is an edge of the first upto updates
// (insert-only) or of the final graph (turnstile).
func (in *input) real(a, b int64, upto int) bool {
	if in.live != nil {
		return in.live[feww.Edge{A: a, B: b}]
	}
	return b >= 0 && b < int64(upto) && in.ups[b].A == a
}

// params is the workload block of the host record.
func (s *spec) params(in *input) map[string]any {
	p := map[string]any{
		"n": s.n, "d": s.d, "alpha": s.alpha, "shards_per_node": s.shards,
		"updates_per_repetition": len(in.ups), "updates_per_request": s.body,
		"probe_queries": s.probe.count, "probe_rate_per_s": s.probe.rate,
	}
	if s.turnstile {
		p["m"], p["scale"] = s.m, s.scale
		p["churn"] = fmt.Sprintf("planted=%d noise=%d max_noise=%d churn=%d", churnPlanted, churnNoise, churnMaxNoise, churnEdges)
	} else {
		p["items"] = fmt.Sprintf("zipf(%g)", zipfSkew)
	}
	if s.pace > 0 {
		p["ingest_pace_updates_per_s"] = s.pace
	} else {
		p["ingest"] = "closed loop"
	}
	if s.reads.rate > 0 {
		p["reads_rate_per_s"], p["reads_fresh_every"] = s.reads.rate, s.reads.freshEvery
	}
	if s.ranges > 0 {
		p["ranges"], p["replicas"], p["atomic_every"] = s.ranges, s.replicas, s.atomicEvery
	}
	return p
}

// interval returns the open-loop spacing of ingest requests.
func (s *spec) ingestInterval() time.Duration {
	return time.Duration(float64(s.body) / s.pace * float64(time.Second))
}
