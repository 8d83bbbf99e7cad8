package main

import (
	"slices"
	"sort"
)

// metric is one reported figure.  samples is the count behind a
// percentile (0 for other figures).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// repTrace is what a traced repetition records besides its spans.
type repTrace struct {
	window       interval // from the first request to the end of the query probe
	barrier      interval // the /stats?fresh=1 request ending the ingest phase
	publications uint64   // view epochs published during the repetition
	queueMax     int      // largest sampled total queue depth
}

// rungResult holds the passes of the same stream through single layers.
type rungResult struct {
	core, engine, decode float64 // updates/s
	bytesPerUpdate       float64
}

type spanKey struct {
	kind, op string
	node     int
}

func key(kind, op string, node int) spanKey { return spanKey{kind, op, node} }

// spanIndex groups spans by kind, op and node, each group sorted by
// start time.  Node -1 holds the group across all nodes.
type spanIndex map[spanKey][]span

// indexSpans indexes the spans that start inside one of the windows.
func indexSpans(spans []span, windows []interval) spanIndex {
	idx := spanIndex{}
	for _, s := range spans {
		if !slices.ContainsFunc(windows, func(w interval) bool { return s.Start >= w.start && s.Start < w.end }) {
			continue
		}
		idx[key(s.Kind, s.Op, s.Node)] = append(idx[key(s.Kind, s.Op, s.Node)], s)
		if s.Node >= 0 {
			idx[key(s.Kind, s.Op, -1)] = append(idx[key(s.Kind, s.Op, -1)], s)
		}
	}
	for _, g := range idx {
		sort.Slice(g, func(i, j int) bool { return g[i].Start < g[j].Start })
	}
	return idx
}

// within returns the intervals of the spans in sorted that start inside
// parent: its children, when only one parent of that path runs at once.
func within(parent span, sorted []span) []interval {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Start >= parent.Start })
	var out []interval
	for ; i < len(sorted) && sorted[i].Start < parent.End; i++ {
		out = append(out, sorted[i].interval())
	}
	return out
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// layerMetrics derives the per-layer figures of a traced run.  Sums are
// per repetition, so runs of different length compare.
func (s *spec) layerMetrics(spans []span, reps []repTrace, updatesPerRep int, rg rungResult) []metric {
	windows := make([]interval, len(reps))
	for i, r := range reps {
		windows[i] = r.window
	}
	idx := indexSpans(spans, windows)
	nReps := float64(len(reps))
	front := kindNode
	if s.ranges > 0 {
		front = kindGateway
	}
	var out []metric
	add := func(name string, v float64, unit string, samples int) {
		out = append(out, metric{name: name, value: v, unit: unit, samples: samples})
	}
	p := supportedPercentile

	// Rungs: the same stream through the bare core, the engine alone and
	// the frame decoder alone.
	add("core.updates_per_s", rg.core, "1/s", 0)
	add("engine.updates_per_s", rg.engine, "1/s", 0)
	add("engine.tax_ratio", rg.engine/rg.core, "ratio", 0)
	add("stream.decode_updates_per_s", rg.decode, "1/s", 0)
	add("stream.bytes_per_update", rg.bytesPerUpdate, "B", 0)

	// Engine calls made by the served stack.
	var enqueue int64
	for _, op := range []string{"ingest", "flush"} {
		for _, b := range idx[key(kindBackend, op, -1)] {
			enqueue += b.dur()
		}
	}
	add("engine.enqueue_busy_s", float64(enqueue)/1e9/nReps, "s", 0)
	var drains []float64
	var pubs uint64
	queueMax := 0
	for _, r := range reps {
		drains = append(drains, float64(unionWithin(r.barrier, intervalsOf(idx[key(kindBackend, "usage", -1)], true)))/1e9)
		pubs += r.publications
		queueMax = max(queueMax, r.queueMax)
	}
	add("engine.drain_s", median(drains), "s", len(drains))
	add("engine.queue_depth_max", float64(queueMax), "updates", 0)
	add("engine.publications_per_mupdate", float64(pubs)/(nReps*float64(updatesPerRep))*1e6, "1/Mupdate", 0)
	var best, freshBest []float64
	for _, b := range idx[key(kindBackend, "best", -1)] {
		if b.Fresh {
			freshBest = append(freshBest, float64(b.dur())/1e6)
		} else {
			best = append(best, usOf(b.dur()))
		}
	}
	add("engine.best_us_p50", p(best, 50), "us", len(best))
	add("engine.fresh_best_ms_p90", p(freshBest, 90), "ms", len(freshBest))

	// Node handlers (every member behind a gateway): self time is the
	// handler minus the engine calls it made.
	engineOps := map[string][]string{"/ingest": {"ingest", "flush"}, "/best": {"best"}, "/stats": {"usage"}}
	var ingestSelf int64
	var querySelf []float64
	requests, errors := 0, 0
	for _, op := range []string{"/ingest", "/best", "/stats", "/healthz"} {
		for _, h := range idx[key(kindNode, op, -1)] {
			requests++
			if h.Status >= 400 {
				errors++
			}
			var calls []interval
			for _, engineOp := range engineOps[op] {
				calls = append(calls, within(h, idx[key(kindBackend, engineOp, h.Node)])...)
			}
			self := selfTime(h.interval(), calls)
			switch {
			case op == "/ingest":
				ingestSelf += self
			case op == "/best" && !h.Fresh:
				querySelf = append(querySelf, usOf(self))
			}
		}
	}
	add("server.ingest_self_s", float64(ingestSelf)/1e9/nReps, "s", 0)
	add("server.query_self_us_p50", p(querySelf, 50), "us", len(querySelf))
	add("server.requests", float64(requests)/nReps, "count/rep", 0)
	add("server.errors", float64(errors)/nReps, "count/rep", 0)

	// Loopback transport: the client's span minus the front handler's.
	handlers := map[uint64]span{}
	for _, h := range idx[key(front, "/best", -1)] {
		handlers[h.ID] = h
	}
	var transport []float64
	for _, c := range idx[key(kindClient, "/best", -1)] {
		if h, ok := handlers[c.ID]; ok && !c.Fresh {
			transport = append(transport, usOf(c.dur()-h.dur()))
		}
	}
	add("http.transport_us_p50", p(transport, 50), "us", len(transport))

	// Gateway: its own work is the handler minus the member requests it
	// waited on.
	var gwSelf, gwDur, gwWait, gwBytes, memberBytes int64
	var atomicDur, streamDur int64
	var atomicReqs, streamReqs, memberReqs int
	var gwQuerySelf []float64
	if s.ranges > 0 {
		members := idx[key(kindNode, "/ingest", -1)]
		for _, g := range idx[key(kindGateway, "/ingest", -1)] {
			kids := within(g, members)
			wait := unionWithin(g.interval(), kids)
			gwSelf += g.dur() - wait
			gwWait += wait
			gwDur += g.dur()
			gwBytes += g.Bytes
			memberReqs += len(kids)
			if g.Atomic {
				atomicDur += g.dur()
				atomicReqs++
			} else {
				streamDur += g.dur()
				streamReqs++
			}
		}
		for _, m := range members {
			memberBytes += m.Bytes
		}
		for _, g := range idx[key(kindGateway, "/best", -1)] {
			if !g.Fresh {
				gwQuerySelf = append(gwQuerySelf, usOf(selfTime(g.interval(), within(g, idx[key(kindNode, "/best", -1)]))))
			}
		}
	}
	gwReqs := atomicReqs + streamReqs
	add("cluster.gateway_self_s", float64(gwSelf)/1e9/nReps, "s", 0)
	add("cluster.member_wait_share", ratio(float64(gwWait), float64(gwDur)), "ratio", 0)
	add("cluster.fanout_bytes_ratio", ratio(float64(memberBytes), float64(gwBytes)), "ratio", 0)
	add("cluster.member_requests_per_request", ratio(float64(memberReqs), float64(gwReqs)), "ratio", 0)
	add("cluster.atomic_updates_per_s", ratio(float64(atomicReqs*s.body), float64(atomicDur)/1e9), "1/s", 0)
	add("cluster.streaming_updates_per_s", ratio(float64(streamReqs*s.body), float64(streamDur)/1e9), "1/s", 0)
	add("cluster.query_self_us_p50", p(gwQuerySelf, 50), "us", len(gwQuerySelf))
	return out
}

// intervalsOf returns the intervals of the spans whose Fresh flag is
// fresh.
func intervalsOf(spans []span, fresh bool) []interval {
	var out []interval
	for _, s := range spans {
		if s.Fresh == fresh {
			out = append(out, s.interval())
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
