package main

import (
	"bytes"
	"fmt"
	"time"

	"feww"
	"feww/internal/stream"
)

// rungBudget bounds one rung pass.  The turnstile core applies a few
// hundred updates per second, so its passes stop at the budget and
// report the rate over the prefix they reached.
const rungBudget = 1500 * time.Millisecond

// rungPasses is how many passes each rung makes; the median is reported.
const rungPasses = 3

// feeder is one fresh instance of a layer: feed applies a chunk, finish
// (if set) waits until everything fed is applied, and close (if set)
// releases it.
type feeder struct {
	feed   func([]feww.Update) error
	finish func() error
	close  func()
}

// edgeFeed adapts an insert-only batch call to updates, converting into
// a reused buffer as the server's insert-only backend does.
func edgeFeed(capacity int, process func([]feww.Edge) error) func([]feww.Update) error {
	edges := make([]feww.Edge, 0, capacity)
	return func(ups []feww.Update) error {
		edges = edges[:0]
		for _, u := range ups {
			edges = append(edges, u.Edge)
		}
		return process(edges)
	}
}

// rungRate feeds the stream's request-sized chunks through fresh
// instances and returns the median rate of rungPasses passes.  Building
// an instance is not timed.
func (s *spec) rungRate(in *input, build func() (feeder, error)) (float64, error) {
	var rates []float64
	for pass := 0; pass < rungPasses; pass++ {
		f, err := build()
		if err != nil {
			return 0, err
		}
		fed := 0
		start := time.Now()
		for lo := 0; lo < len(in.ups) && time.Since(start) < rungBudget; lo += s.body {
			chunk := in.ups[lo:min(lo+s.body, len(in.ups))]
			if err = f.feed(chunk); err != nil {
				break
			}
			fed += len(chunk)
		}
		if err == nil && f.finish != nil {
			err = f.finish()
		}
		rates = append(rates, float64(fed)/time.Since(start).Seconds())
		if f.close != nil {
			f.close()
		}
		if err != nil {
			return 0, err
		}
	}
	return median(rates), nil
}

// rungs passes the workload's stream through the bare core instance
// (Algorithm 2 or 3 over the whole universe), the sharded engine alone
// with one node's configuration, and the frame decoder alone.
func (s *spec) rungs(in *input, seed uint64) (rungResult, error) {
	var rg rungResult
	var err error
	rg.core, err = s.rungRate(in, func() (feeder, error) {
		if s.turnstile {
			c, err := feww.NewInsertDelete(s.turnstileConfig(s.n, seed).TurnstileConfig)
			if err != nil {
				return feeder{}, err
			}
			return feeder{feed: func(ups []feww.Update) error { c.ProcessUpdates(ups); return nil }}, nil
		}
		c, err := feww.NewInsertOnly(s.insertConfig(s.n, seed).Config)
		if err != nil {
			return feeder{}, err
		}
		return feeder{feed: edgeFeed(s.body, func(e []feww.Edge) error { c.ProcessEdges(e); return nil })}, nil
	})
	if err != nil {
		return rg, fmt.Errorf("core rung: %w", err)
	}
	rg.engine, err = s.rungRate(in, func() (feeder, error) {
		if s.turnstile {
			e, err := feww.NewTurnstileEngine(s.turnstileConfig(s.n, seed))
			if err != nil {
				return feeder{}, err
			}
			return feeder{feed: e.ProcessUpdates, finish: e.Drain, close: e.Close}, nil
		}
		e, err := feww.NewEngine(s.insertConfig(s.n, seed))
		if err != nil {
			return feeder{}, err
		}
		return feeder{feed: edgeFeed(s.body, e.ProcessEdges), finish: e.Drain, close: e.Close}, nil
	})
	if err != nil {
		return rg, fmt.Errorf("engine rung: %w", err)
	}
	var decodes []float64
	for pass := 0; pass < rungPasses; pass++ {
		start := time.Now()
		n := 0
		for _, body := range in.bodies {
			sc, err := stream.NewFrameScanner(bytes.NewReader(body))
			if err != nil {
				return rg, fmt.Errorf("decode rung: %w", err)
			}
			for sc.Scan() {
				n++
			}
			if err := sc.Err(); err != nil {
				return rg, fmt.Errorf("decode rung: %w", err)
			}
		}
		decodes = append(decodes, float64(n)/time.Since(start).Seconds())
	}
	rg.decode = median(decodes)
	rg.bytesPerUpdate = float64(in.bytes) / float64(len(in.ups))
	return rg, nil
}
