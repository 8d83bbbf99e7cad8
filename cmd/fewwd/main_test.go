package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"feww/server"
)

// build is buildBackend with small engine parameters every kind accepts.
func build(restore, algo string) (server.Backend, error) {
	return buildBackend(restore, algo, 64, 0, 8, 2, 0, 1, 0.3, 2, 0, 0, 80, 4)
}

// kindsByAlgo is every -algo value and the row it must build.
var kindsByAlgo = map[string]*server.Kind{
	"insert":    server.InsertOnly,
	"turnstile": server.Turnstile,
	"star":      server.Star,
	"window":    server.Window,
}

func TestBuildBackendAllKinds(t *testing.T) {
	for algo, want := range kindsByAlgo {
		be, err := build("", algo)
		if err != nil {
			t.Fatalf("-algo %s: %v", algo, err)
		}
		be.Close()
		if be.Kind() != want.Name {
			t.Errorf("-algo %s built kind %q, want %q", algo, be.Kind(), want.Name)
		}
	}
}

func TestBuildBackendUnknownKind(t *testing.T) {
	_, err := build("", "bogus")
	if err == nil {
		t.Fatal("-algo bogus built an engine")
	}
	for algo := range kindsByAlgo {
		if !strings.Contains(err.Error(), algo) {
			t.Errorf("error %q does not name -algo %s", err, algo)
		}
	}
}

// TestBuildBackendRestoreKind: with -restore the snapshot decides the
// kind, whatever -algo says.
func TestBuildBackendRestoreKind(t *testing.T) {
	dir := t.TempDir()
	for algo, want := range kindsByAlgo {
		be, err := build("", algo)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, algo+".ckpt")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := be.Snapshot(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		be.Close()

		restored, err := build(path, "insert")
		if err != nil {
			t.Fatalf("restoring a %s snapshot: %v", algo, err)
		}
		restored.Close()
		if restored.Kind() != want.Name {
			t.Errorf("restored a %s snapshot as kind %q, want %q", algo, restored.Kind(), want.Name)
		}
	}
}
