// Command perfbench is the repository's benchmark.  It builds the FEwW
// serving stack in-process from the constructors cmd/fewwd and
// cmd/fewwgate use — engine, server.Backend, server handler, cluster
// gateway — serves every node over loopback TCP, drives one named
// workload from a seeded stream, checks every answer against the
// stream, and prints each metric by name with its unit.  The last line
// of standard output is a JSON result; the exit status is 1 when any
// check fails.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload ingest|serve|gateway|turnstile --seed 1 --seconds 10 --trace 0|1
//
// --trace 0 measures the end-to-end metrics.  --trace 1 also passes the
// stream through single layers (bare core, engine, frame decoder),
// repeats the measurement with spans recorded at every layer boundary,
// and reports per-layer metrics plus the tracing overhead on each
// end-to-end metric; the spans are written under .bench_build/traces.
// BENCHMARK.json at the repository root lists the workloads and metrics
// and why each was chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: ingest, serve, gateway or turnstile")
	seed := flag.Uint64("seed", 1, "stream seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measuring time in seconds")
	traced := flag.Int("trace", 0, "1 = per-layer run with spans recorded")
	flag.Parse()
	s, ok := specs[*name]
	if !ok || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload ingest|serve|gateway|turnstile, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if err := run(s, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(s *spec, seed uint64, budget time.Duration, traced bool) error {
	in, err := s.generate(seed)
	if err != nil {
		return fmt.Errorf("generating the %s stream: %w", s.name, err)
	}
	printJSON(map[string]any{"host": hostBlock(s, in, seed, traced)})
	r := &runner{s: s, in: in, seed: seed}

	// One unmeasured repetition first, so the measured ones do not pay
	// for cold caches and lazy runtime set-up; its final state is the
	// reference every later repetition must reproduce.
	warm, err := r.warmUp()
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	ref := warm.reps[0].final
	stealStart := readSteal()
	var rg rungResult
	if traced {
		if rg, err = s.rungs(in, seed); err != nil {
			return err
		}
		budget /= 2
	}
	plain, err := r.measure(budget, nil)
	if err != nil {
		return err
	}
	phases := []*phase{warm, plain}
	e2e := plain.endToEnd()
	var layers []metric
	var tr *tracer
	if traced {
		tr = newTracer()
		tp, err := r.measure(budget, tr)
		if err != nil {
			return fmt.Errorf("traced phase: %w", err)
		}
		phases = append(phases, tp)
		tracedE2E := tp.endToEnd()
		var traces []repTrace
		for _, rp := range tp.reps {
			traces = append(traces, rp.trace)
		}
		layers = s.layerMetrics(tr.snapshot(), traces, len(in.ups), rg)
		for i, m := range tracedE2E {
			layers = append(layers, metric{name: "trace_overhead." + m.name, value: m.value - e2e[i].value, unit: m.unit})
		}
	}
	lg := append(loadgen(plain, phases...), metric{name: "host.steal_share", value: readSteal().since(stealStart), unit: "ratio"})
	report := e2e
	if traced {
		report = append(layers, lg...)
	}

	var problems []error
	if err := behindSchedule(phases); err != nil {
		problems = append(problems, err)
	}
	attempted, failed := 0, 0
	for _, ph := range phases {
		problems = append(problems, ph.validate(ref)...)
		attempted += ph.attempted
		failed += ph.failed
	}
	for _, m := range append(append(e2e, layers...), lg...) {
		printMetric(m)
	}
	if traced {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("trace-%s-seed%d.jsonl", s.name, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	fmt.Printf("final state: digest %s, %d space words, first of %d repetitions\n",
		ref.digest, ref.spaceWords, repetitions(phases))
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %v\n", p)
	}
	res := result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, m := range report {
		res.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
	}
	printJSON(res)
	if !res.Correct {
		return errors.New("correctness checks failed")
	}
	return nil
}

func printMetric(m metric) {
	note := ""
	if m.samples > 0 {
		note = fmt.Sprintf("  (n=%d, supports up to p%g)", m.samples, highestPercentile(m.samples))
	}
	fmt.Printf("%-44s %16.6g %s%s\n", m.name, m.value, m.unit, note)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs are printed
	}
	fmt.Println(string(b))
}

// hostBlock records where and on what the figures were taken, so
// numbers from different hosts or inputs are never compared silently.
func hostBlock(s *spec, in *input, seed uint64, traced bool) map[string]any {
	return map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit(),
		"workload":   s.name,
		"seed":       seed,
		"trace":      traced,
		"params":     s.params(in),
	}
}

// cpuTicks holds the steal and total ticks of /proc/stat's cpu line.
type cpuTicks struct{ steal, total uint64 }

// readSteal reads the host's CPU ticks; zero where /proc/stat is absent.
func readSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guests are inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since returns the share of CPU time the hypervisor gave to other
// guests between start and t: high values mean a slow, noisy run.
func (t cpuTicks) since(start cpuTicks) float64 {
	return ratio(float64(t.steal-start.steal), float64(t.total-start.total))
}

// commit reads the checked-out commit from .git in the working
// directory, or says why it cannot.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown (no .git in the working directory)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown (" + ref + " not found)"
}
