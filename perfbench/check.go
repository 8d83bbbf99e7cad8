package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"feww/server"
)

// checkNeighbourhood is the paper's output contract for one answer:
// every witness (vertex, b) is a real edge, no witness repeats, and
// there are at least min of them.
func checkNeighbourhood(nb server.NeighbourhoodJSON, real func(a, b int64) bool, min int64) error {
	if nb.Size != len(nb.Witnesses) {
		return fmt.Errorf("vertex %d: size %d but %d witnesses", nb.Vertex, nb.Size, len(nb.Witnesses))
	}
	if int64(len(nb.Witnesses)) < min {
		return fmt.Errorf("vertex %d: %d witnesses, want at least %d", nb.Vertex, len(nb.Witnesses), min)
	}
	seen := make(map[int64]bool, len(nb.Witnesses))
	for _, b := range nb.Witnesses {
		if seen[b] {
			return fmt.Errorf("vertex %d: duplicate witness %d", nb.Vertex, b)
		}
		seen[b] = true
		if !real(nb.Vertex, b) {
			return fmt.Errorf("vertex %d: fabricated witness %d: (%d,%d) is not a stream edge", nb.Vertex, b, nb.Vertex, b)
		}
	}
	return nil
}

// witnessTarget is the paper's output size ceil(d/alpha).  The checks
// take it from the workload, never from a reply, so a server that
// understates its own target cannot pass short answers.
func (s *spec) witnessTarget() int64 {
	return (s.d + int64(s.alpha) - 1) / int64(s.alpha)
}

// checkBest checks a /best reply against the witness target: the reply
// must state it, and a found answer must hold real, distinct witnesses,
// at least target of them when full.
func checkBest(b server.BestResponse, real func(a, b int64) bool, target int64, full bool) error {
	if b.WitnessTarget != target {
		return fmt.Errorf("witness_target %d, want ceil(d/alpha) = %d", b.WitnessTarget, target)
	}
	if !b.Found || b.Neighbourhood == nil {
		if full {
			return errors.New("no answer found")
		}
		return nil
	}
	min := int64(0)
	if full {
		min = target
	}
	return checkNeighbourhood(*b.Neighbourhood, real, min)
}

// final is a repetition's end state, read after the ingest barrier.
type final struct {
	spaceWords int64
	digest     string
}

// checkFinal verifies the repetition's final answers: every fresh
// /results neighbourhood and the published /best are full and real, an
// expected item is reported, and the published /stats agrees with the
// fresh one (after the barrier the published views must hold the whole
// stream).  The digest covers the /results bytes and the space figure,
// which a fixed seed must reproduce exactly.
func (s *spec) checkFinal(c *conn, url string, in *input, freshSpace int64) (final, error) {
	real := func(a, b int64) bool { return in.real(a, b, len(in.ups)) }
	status, body, err := c.get(url + "/results?fresh=1")
	if err != nil {
		return final{}, err
	}
	if status != 200 {
		return final{}, fmt.Errorf("GET /results?fresh=1: HTTP %d", status)
	}
	var results []server.NeighbourhoodJSON
	if err := json.Unmarshal(body, &results); err != nil {
		return final{}, fmt.Errorf("GET /results?fresh=1: %w", err)
	}
	var best server.BestResponse
	if err := c.getJSON(url+"/best", &best); err != nil {
		return final{}, err
	}
	target := s.witnessTarget()
	if err := checkBest(best, real, target, true); err != nil {
		return final{}, fmt.Errorf("final /best: %w", err)
	}
	found := false
	for _, nb := range results {
		if err := checkNeighbourhood(nb, real, target); err != nil {
			return final{}, fmt.Errorf("final /results: %w", err)
		}
		found = found || slices.Contains(in.expect, nb.Vertex)
	}
	if !found {
		return final{}, fmt.Errorf("final /results (%d answers) misses every expected item %v", len(results), in.expect)
	}
	space, err := s.spaceWords(c, url, false)
	if err != nil {
		return final{}, err
	}
	if space != freshSpace {
		return final{}, fmt.Errorf("published space_words %d after the barrier, fresh %d", space, freshSpace)
	}
	h := sha256.New()
	h.Write(body)
	fmt.Fprintf(h, "space_words=%d", space)
	return final{spaceWords: space, digest: hex.EncodeToString(h.Sum(nil))[:16]}, nil
}

// spaceWords reads space_words from /stats, summed over every member
// (replicas included) behind a gateway.  With fresh it is the barrier
// that ends the ingest phase.
func (s *spec) spaceWords(c *conn, url string, fresh bool) (int64, error) {
	path := "/stats"
	if fresh {
		path += "?fresh=1"
	}
	if s.ranges == 0 {
		var st server.StatsResponse
		if err := c.getJSON(url+path, &st); err != nil {
			return 0, err
		}
		return int64(st.SpaceWords), nil
	}
	var st struct {
		Degraded  bool `json:"degraded"`
		PerMember []struct {
			URL   string                `json:"url"`
			Stats *server.StatsResponse `json:"stats"`
		} `json:"per_member"`
	}
	if err := c.getJSON(url+path, &st); err != nil {
		return 0, err
	}
	if st.Degraded || len(st.PerMember) != s.ranges*s.replicas {
		return 0, fmt.Errorf("GET %s: degraded cluster (%d members reported)", path, len(st.PerMember))
	}
	var sum int64
	for i, m := range st.PerMember {
		if m.Stats == nil {
			return 0, fmt.Errorf("GET %s: member %s reported no stats", path, m.URL)
		}
		// Replicas of one range saw the same frames in the same order.
		if first := st.PerMember[i-i%s.replicas].Stats; m.Stats.SpaceWords != first.SpaceWords || m.Stats.Elements != first.Elements {
			return 0, fmt.Errorf("GET %s: replica %s diverged: %d elements %d words, primary %d elements %d words",
				path, m.URL, m.Stats.Elements, m.Stats.SpaceWords, first.Elements, first.SpaceWords)
		}
		sum += int64(m.Stats.SpaceWords)
	}
	return sum, nil
}
