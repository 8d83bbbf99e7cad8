package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"feww"
	"feww/cluster"
	"feww/server"
)

// stack is one repetition's system under test, built with the
// constructors cmd/fewwd and cmd/fewwgate use and served over loopback
// TCP: one node, or replicated members behind a gateway.
type stack struct {
	url      string
	backends []server.Backend
	stops    []func()
}

// listen serves h on a fresh loopback port and returns its base URL and
// a stop function that closes the server and waits for Serve to return.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

func (s *spec) insertConfig(n int64, seed uint64) feww.EngineConfig {
	return feww.EngineConfig{
		Config: feww.Config{N: n, D: s.d, Alpha: s.alpha, Seed: seed, ScaleFactor: s.scale},
		Shards: s.shards,
	}
}

func (s *spec) turnstileConfig(n int64, seed uint64) feww.TurnstileEngineConfig {
	return feww.TurnstileEngineConfig{
		TurnstileConfig: feww.TurnstileConfig{N: n, M: s.m, D: s.d, Alpha: s.alpha, Seed: seed, ScaleFactor: s.scale},
		Shards:          s.shards,
	}
}

// newBackend builds one node's engine over n items, as fewwd does.
func (s *spec) newBackend(n int64, seed uint64) (server.Backend, error) {
	if s.turnstile {
		eng, err := feww.NewTurnstileEngine(s.turnstileConfig(n, seed))
		if err != nil {
			return nil, err
		}
		return server.NewTurnstileBackend(eng), nil
	}
	eng, err := feww.NewEngine(s.insertConfig(n, seed))
	if err != nil {
		return nil, err
	}
	return server.NewInsertOnlyBackend(eng), nil
}

// build starts the workload's stack.  With a tracer every backend,
// member handler and gateway handler records spans.
func (s *spec) build(seed uint64, tr *tracer) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	addNode := func(n int64, idx int) (string, error) {
		be, err := s.newBackend(n, seed)
		if err != nil {
			return "", err
		}
		st.stops = append(st.stops, be.Close)
		if tr != nil {
			be = &tracedBackend{Backend: be, t: tr, node: idx}
		}
		st.backends = append(st.backends, be)
		h := server.New(be, server.Config{}).Handler()
		if tr != nil {
			h = tr.handler(kindNode, idx, h)
		}
		url, stop, err := listen(h)
		if err != nil {
			return "", err
		}
		st.stops = append(st.stops, stop)
		return url, nil
	}
	if s.ranges == 0 {
		st.url, err = addNode(s.n, 0)
		return st, err
	}
	var members []string
	for j, rng := range cluster.Split(s.n, s.ranges) {
		for k := 0; k < s.replicas; k++ {
			url, err := addNode(rng.Len(), j*s.replicas+k)
			if err != nil {
				return st, err
			}
			members = append(members, url)
		}
	}
	g, err := cluster.New(cluster.Config{Members: members, Replicas: s.replicas})
	if err != nil {
		return st, err
	}
	// fewwgate's defaults: the reconciler probes every member each second.
	recon := g.StartReconciler(cluster.ReconcilerConfig{})
	st.stops = append(st.stops, recon.Stop)
	var h http.Handler = g.Handler()
	if tr != nil {
		h = tr.handler(kindGateway, -1, h)
	}
	url, stop, err := listen(h)
	if err != nil {
		return st, err
	}
	st.stops = append(st.stops, stop)
	st.url = url
	return st, nil
}

// close stops everything in reverse start order: the gateway and its
// reconciler before the members, each server before its engine.
func (st *stack) close() {
	for i := len(st.stops) - 1; i >= 0; i-- {
		st.stops[i]()
	}
	st.stops = nil
	// The gateway's member clients share one pool; drop the connections
	// to this stack's now-closed members.
	server.DefaultTransport.CloseIdleConnections()
}

// waitReady polls /healthz until it answers 200.
func waitReady(c *conn, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		status, _, err := c.get(url + "/healthz")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready after %v (status %d, err %v)", url, timeout, status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// viewEpochs sums every shard's published view epoch over all nodes.
func (st *stack) viewEpochs() uint64 {
	var sum uint64
	for _, be := range st.backends {
		for _, e := range be.ViewEpochs() {
			sum += e
		}
	}
	return sum
}

// queueDepth sums the elements buffered in every node's shard queues:
// the figure /stats serves as queue_depths.
func (st *stack) queueDepth() int {
	sum := 0
	for _, be := range st.backends {
		for _, q := range be.QueueDepths() {
			sum += q
		}
	}
	return sum
}
