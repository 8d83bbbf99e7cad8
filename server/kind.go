package server

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"feww"
	"feww/internal/enginesnap"
)

// Kind is one row of the engine-kind table: what the server, the cluster
// gateway and fewwd know about an engine kind.  How the kind ingests and
// answers is its Backend adapter's business.
type Kind struct {
	Name      string // wire name, reported as "engine" by /stats and /healthz
	Algo      string // the fewwd -algo value that builds the kind
	Deletions bool   // whether the kind's stream may carry deletions
	snapshot  byte   // the FEWWENG1 kind byte of the kind's snapshots
	restore   func(io.Reader) (Backend, error)
}

// kindID indexes kinds.  Backends hold their row as a kindID: a *Kind
// taken in a New*Backend function would make the table's initialiser
// depend on itself.
type kindID uint8

const (
	insertOnlyKind kindID = iota
	turnstileKind
	starKind
	windowKind
)

var kinds = [...]Kind{
	insertOnlyKind: {Name: "insert-only", Algo: "insert", snapshot: 0,
		restore: restoreWith(feww.RestoreEngine, NewInsertOnlyBackend)},
	turnstileKind: {Name: "turnstile", Algo: "turnstile", Deletions: true, snapshot: 1,
		restore: restoreWith(feww.RestoreTurnstileEngine, NewTurnstileBackend)},
	starKind: {Name: "star", Algo: "star", snapshot: 2,
		restore: restoreWith(feww.RestoreStarEngine, NewStarBackend)},
	windowKind: {Name: "window", Algo: "window", snapshot: 3,
		restore: restoreWith(feww.RestoreWindowEngine, NewWindowBackend)},
}

// The rows, for code that acts on one particular kind.
var (
	InsertOnly = &kinds[insertOnlyKind]
	Turnstile  = &kinds[turnstileKind]
	Star       = &kinds[starKind]
	Window     = &kinds[windowKind]
)

// restoreWith builds a row's restore: restore the engine, then wrap it.
func restoreWith[E any](restore func(io.Reader) (E, error), wrap func(E) Backend) func(io.Reader) (Backend, error) {
	return func(r io.Reader) (Backend, error) {
		e, err := restore(r)
		if err != nil {
			return nil, err
		}
		return wrap(e), nil
	}
}

// KindNamed returns the row whose wire name is name.
func KindNamed(name string) (*Kind, error) {
	return findKind(name, func(k *Kind) string { return k.Name })
}

// KindForAlgo returns the row the fewwd -algo value algo builds.
func KindForAlgo(algo string) (*Kind, error) {
	return findKind(algo, func(k *Kind) string { return k.Algo })
}

func findKind(v string, key func(*Kind) string) (*Kind, error) {
	valid := make([]string, len(kinds))
	for i := range kinds {
		if valid[i] = key(&kinds[i]); valid[i] == v {
			return &kinds[i], nil
		}
	}
	return nil, fmt.Errorf("unknown engine kind %q (want one of %s)", v, strings.Join(valid, ", "))
}

// DeletionError rejects deletion u on a kind without Deletions.
func (k *Kind) DeletionError(u feww.Update) error {
	return fmt.Errorf("%v: %s engine cannot apply deletions (only -algo %s does)", u, k.Name, Turnstile.Algo)
}

// RestoreBackend reads an engine snapshot — a checkpoint file, or the
// bytes of GET /snapshot — and returns a running backend of the kind its
// header names.  This is the paper's one-way protocol made operational:
// party i's memory state restored by party i+1.
func RestoreBackend(r io.Reader) (Backend, error) {
	br := bufio.NewReader(r)
	b, err := enginesnap.PeekKind(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", feww.ErrBadSnapshot, err)
	}
	for i := range kinds {
		if kinds[i].snapshot == b {
			return kinds[i].restore(br)
		}
	}
	return nil, fmt.Errorf("%w: unknown engine kind byte %d", feww.ErrBadSnapshot, b)
}
