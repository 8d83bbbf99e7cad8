package main

import (
	"strings"
	"testing"

	"feww"
	"feww/internal/stream"
	"feww/server"
)

// insertInput is a six-update insert-only stream: item 7 arrives at
// positions 0, 2 and 4, item 9 at 1, 3 and 5.
func insertInput() *input {
	in := &input{}
	for t := int64(0); t < 6; t++ {
		in.ups = append(in.ups, stream.Ins(7+2*(t%2), t))
	}
	return in
}

func TestCheckerAcceptsRealAnswers(t *testing.T) {
	in := insertInput()
	real := func(a, b int64) bool { return in.real(a, b, len(in.ups)) }
	nb := server.NeighbourhoodJSON{Vertex: 7, Size: 3, Witnesses: []int64{4, 0, 2}}
	if err := checkNeighbourhood(nb, real, 3); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerRejectsFabricatedWitness(t *testing.T) {
	in := insertInput()
	real := func(a, b int64) bool { return in.real(a, b, len(in.ups)) }
	for _, w := range []int64{1, 6, -1} { // item 9's position, past the stream, negative
		nb := server.NeighbourhoodJSON{Vertex: 7, Size: 2, Witnesses: []int64{0, w}}
		if err := checkNeighbourhood(nb, real, 2); err == nil || !strings.Contains(err.Error(), "fabricated") {
			t.Errorf("witness %d: err = %v, want a fabricated-witness error", w, err)
		}
	}
}

func TestCheckerRejectsWitnessNotYetSent(t *testing.T) {
	in := insertInput()
	nb := server.NeighbourhoodJSON{Vertex: 7, Size: 2, Witnesses: []int64{0, 4}}
	// Position 4 is a real edge of the stream, but a reader that saw only
	// the first four updates sent cannot have been served it.
	if err := checkNeighbourhood(nb, func(a, b int64) bool { return in.real(a, b, 4) }, 0); err == nil {
		t.Fatal("a witness beyond the sent prefix was accepted")
	}
}

func TestCheckerRejectsShortAnswer(t *testing.T) {
	in := insertInput()
	real := func(a, b int64) bool { return in.real(a, b, len(in.ups)) }
	nb := server.NeighbourhoodJSON{Vertex: 7, Size: 2, Witnesses: []int64{0, 2}}
	if err := checkNeighbourhood(nb, real, 3); err == nil || !strings.Contains(err.Error(), "at least 3") {
		t.Errorf("2 witnesses against a target of 3: err = %v", err)
	}
	b := server.BestResponse{Found: true, WitnessTarget: 3, Neighbourhood: &nb}
	if err := checkBest(b, real, 3, true); err == nil {
		t.Error("a final /best below its witness target was accepted")
	}
	if err := checkBest(b, real, 3, false); err != nil {
		t.Errorf("a mid-stream /best below its target must pass: %v", err)
	}
	if err := checkBest(server.BestResponse{WitnessTarget: 3}, real, 3, true); err == nil {
		t.Error("a final /best without an answer was accepted")
	}
}

func TestCheckerRejectsUnderstatedTarget(t *testing.T) {
	in := insertInput()
	real := func(a, b int64) bool { return in.real(a, b, len(in.ups)) }
	// Two real witnesses meet the target of 2 the reply claims, but the
	// workload's ceil(d/alpha) is 3.
	nb := server.NeighbourhoodJSON{Vertex: 7, Size: 2, Witnesses: []int64{0, 2}}
	b := server.BestResponse{Found: true, WitnessTarget: 2, Neighbourhood: &nb}
	for _, full := range []bool{true, false} {
		if err := checkBest(b, real, 3, full); err == nil || !strings.Contains(err.Error(), "witness_target 2") {
			t.Errorf("full=%v: a reply understating its target: err = %v", full, err)
		}
	}
	if got := (&spec{d: 1000, alpha: 2}).witnessTarget(); got != 500 {
		t.Errorf("ceil(1000/2) = %d", got)
	}
	if got := (&spec{d: 33, alpha: 2}).witnessTarget(); got != 17 {
		t.Errorf("ceil(33/2) = %d", got)
	}
}

func TestCheckerRejectsDuplicateAndMiscountedWitnesses(t *testing.T) {
	in := insertInput()
	real := func(a, b int64) bool { return in.real(a, b, len(in.ups)) }
	dup := server.NeighbourhoodJSON{Vertex: 7, Size: 3, Witnesses: []int64{0, 2, 0}}
	if err := checkNeighbourhood(dup, real, 0); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate witness: err = %v", err)
	}
	miscounted := server.NeighbourhoodJSON{Vertex: 7, Size: 5, Witnesses: []int64{0, 2}}
	if err := checkNeighbourhood(miscounted, real, 0); err == nil {
		t.Error("a size disagreeing with the witness list was accepted")
	}
}

func TestTurnstileCheckerUsesTheFinalGraph(t *testing.T) {
	in := &input{live: map[feww.Edge]bool{{A: 3, B: 10}: true, {A: 3, B: 11}: true}}
	real := func(a, b int64) bool { return in.real(a, b, 0) }
	ok := server.NeighbourhoodJSON{Vertex: 3, Size: 2, Witnesses: []int64{10, 11}}
	if err := checkNeighbourhood(ok, real, 2); err != nil {
		t.Fatal(err)
	}
	deleted := server.NeighbourhoodJSON{Vertex: 3, Size: 2, Witnesses: []int64{10, 12}}
	if err := checkNeighbourhood(deleted, real, 2); err == nil {
		t.Error("a witness that is not a live edge was accepted")
	}
}
