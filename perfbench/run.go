package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"feww/server"
)

// maxLag is the median generator lag beyond which a run is invalid: the
// generator then sent most requests two or more query intervals late, so
// the system saw less load than the schedule says, and its figures would
// read fast for the wrong reason.  Isolated late sends (a descheduled
// virtual CPU) show in loadgen.late_ms_p99 instead.
const maxLag = time.Millisecond

// runner drives one workload on one seed's input.
type runner struct {
	s    *spec
	in   *input
	seed uint64
}

// repetition is one build-drive-check cycle on a fresh stack.  CPU
// figures are the whole process's: stack and load generator together.
type repetition struct {
	setupCPU     time.Duration // CPU spent building the stack until /healthz is ready
	setupWall    time.Duration
	cpuPerUpdate float64 // CPU ns per update, first send until the barrier returns
	cpuPerQuery  float64 // CPU µs per query of the post-barrier probe
	rate         float64 // updates per wall second, first send until the barrier returns
	final        final
	trace        repTrace
}

// phase is a sequence of repetitions measured together.
type phase struct {
	reps      []repetition
	ingest    latencies
	queries   queryLat
	lag       latencies
	attempted int
	failed    int
	errs      []error
	// wrong holds answers the checker rejected: a correctness failure,
	// not a failed request.
	wrong []error
}

// absorb adds a load stream's accounting to the phase and checks the
// replies it sampled.  It runs after the stream's CPU window is read.
func (ph *phase) absorb(l load) {
	ph.attempted += l.attempted
	ph.failed += l.failed
	ph.errs = append(ph.errs, l.errs...)
	for _, d := range l.lag {
		ph.lag.add(d)
	}
	for _, sm := range l.sampled {
		var b server.BestResponse
		err := json.Unmarshal(sm.body, &b)
		if err == nil {
			err = l.check(b, sm.upto)
		}
		if err != nil {
			ph.wrong = append(ph.wrong, fmt.Errorf("published /best after %d updates sent: %w", sm.upto, err))
		}
	}
}

// cpuTime returns the CPU time this process has used.  Unlike wall time
// it leaves out the time the hypervisor runs other guests on this
// machine's CPUs, which swings wall-clock figures by a factor of two
// from one minute to the next (see host.steal_share).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rep builds a fresh stack, drives the workload once through it and
// checks the result.  A tracer, when set, records spans from every layer.
func (r *runner) rep(tr *tracer, ic, qc *conn, ph *phase) (rp repetition, err error) {
	s, in := r.s, r.in
	// The previous repetition's stack is garbage now.  Collect it and
	// hand its memory back to the OS here, so neither the collection nor
	// the background scavenging lands in this repetition, and every
	// set-up starts from the same state, as a fresh process would.
	debug.FreeOSMemory()
	t0, c0 := time.Now(), cpuTime()
	st, err := s.build(r.seed, tr)
	if err != nil {
		return rp, fmt.Errorf("building the stack: %w", err)
	}
	defer func() {
		st.close()
		ic.close()
		qc.close()
	}()
	if err := waitReady(qc, st.url, 30*time.Second); err != nil {
		return rp, err
	}
	rp.setupCPU, rp.setupWall = cpuTime()-c0, time.Since(t0)

	var (
		sent     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		il, ql   load
		queueMax int
	)
	checker := func(full bool) func(server.BestResponse, int) error {
		return func(b server.BestResponse, upto int) error {
			return checkBest(b, func(a, w int64) bool { return in.real(a, w, upto) }, s.witnessTarget(), full)
		}
	}
	epochs := st.viewEpochs()
	if tr != nil {
		rp.trace.window.start = tr.now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				queueMax = max(queueMax, st.queueDepth())
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	start, c1 := time.Now(), cpuTime()
	if s.reads.rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ql = runQueries(qc, st.url, s.reads, start, &stop, &sent, &ph.queries, checker(false))
		}()
	}
	il = s.runIngest(ic, st.url, in, start, &sent, &ph.ingest)
	if tr != nil {
		rp.trace.barrier.start = tr.now()
	}
	freshSpace, err := s.spaceWords(ic, st.url, true)
	if tr != nil {
		rp.trace.barrier.end = tr.now()
	}
	ingested := time.Since(start)
	rp.rate = float64(len(in.ups)) / ingested.Seconds()
	stop.Store(true)
	wg.Wait()
	rp.cpuPerUpdate = float64(cpuTime()-c1) / float64(len(in.ups))
	ph.absorb(il)
	ph.absorb(ql)
	if err != nil {
		return rp, fmt.Errorf("ingest barrier: %w", err)
	}

	// The probe: the workload's read latencies where it has no reads
	// beside ingest, and on every workload the CPU cost of a query.
	probeLat := &ph.queries
	if s.reads.rate > 0 {
		probeLat = &queryLat{}
	}
	runtime.GC() // ingest garbage is not the probe's cost
	probeStart, c2 := time.Now(), cpuTime()
	pl := runQueries(qc, st.url, s.probe, probeStart, &stop, &sent, probeLat, checker(true))
	rp.cpuPerQuery = float64((cpuTime() - c2).Microseconds()) / float64(s.probe.count)
	ph.absorb(pl)
	if tr != nil {
		rp.trace.window.end = tr.now()
		rp.trace.queueMax = queueMax
		rp.trace.publications = st.viewEpochs() - epochs
	}
	checkStart := time.Now()
	rp.final, err = s.checkFinal(ic, st.url, in, freshSpace)
	fmt.Fprintf(os.Stderr, "perfbench: %s repetition: setup %.3fs, ingest %.3fs, probe %.3fs, check %.3fs\n",
		s.name, rp.setupWall.Seconds(), ingested.Seconds(), checkStart.Sub(probeStart).Seconds(), time.Since(checkStart).Seconds())
	return rp, err
}

// warmUp runs one repetition that is checked but not measured.
func (r *runner) warmUp() (*phase, error) {
	ph := &phase{}
	rp, err := r.rep(nil, newConn(nil), newConn(nil), ph)
	if err != nil {
		return ph, err
	}
	ph.reps = append(ph.reps, rp)
	return ph, nil
}

// measure runs repetitions until budget has passed.
func (r *runner) measure(budget time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	ic, qc := newConn(tr), newConn(tr)
	begin := time.Now()
	for len(ph.reps) == 0 || time.Since(begin) < budget {
		rp, err := r.rep(tr, ic, qc, ph)
		if err != nil {
			return ph, err
		}
		ph.reps = append(ph.reps, rp)
	}
	return ph, nil
}

// endToEnd computes the workload's end-to-end metrics over a phase: the
// medians over its repetitions of CPU cost, and the space figure.
func (ph *phase) endToEnd() []metric {
	var setups, perUpdate, perQuery []float64
	for _, rp := range ph.reps {
		setups = append(setups, rp.setupCPU.Seconds())
		perUpdate = append(perUpdate, rp.cpuPerUpdate)
		perQuery = append(perQuery, rp.cpuPerQuery)
	}
	return []metric{
		{name: "setup_s", value: median(setups), unit: "s", samples: len(setups)},
		{name: "ingest_cpu_ns_per_update", value: median(perUpdate), unit: "ns", samples: len(perUpdate)},
		{name: "query_cpu_us", value: median(perQuery), unit: "us", samples: len(perQuery)},
		{name: "space_words", value: float64(ph.reps[0].final.spaceWords), unit: "words"},
	}
}

func repetitions(phases []*phase) int {
	n := 0
	for _, ph := range phases {
		n += len(ph.reps)
	}
	return n
}

// loadgen reports what the load generator saw on the wall clock over
// the measured phase, and its own accounting over every phase.  A
// percentile the samples do not support reads 0.
func loadgen(measured *phase, phases ...*phase) []metric {
	var lag latencies
	attempted, failed := 0, 0
	for _, ph := range phases {
		lag.ms = append(lag.ms, ph.lag.ms...)
		attempted += ph.attempted
		failed += ph.failed
	}
	var setups, rates []float64
	for _, rp := range measured.reps {
		setups = append(setups, rp.setupWall.Seconds())
		rates = append(rates, rp.rate)
	}
	pct := func(name string, l *latencies, p float64) metric {
		return metric{name: name, value: supportedPercentile(l.ms, p), unit: "ms", samples: len(l.ms)}
	}
	return []metric{
		{name: "loadgen.setup_wall_s", value: median(setups), unit: "s", samples: len(setups)},
		{name: "loadgen.ingest_updates_per_s", value: median(rates), unit: "1/s", samples: len(rates)},
		pct("loadgen.ingest_p50_ms", &measured.ingest, 50),
		pct("loadgen.ingest_p99_ms", &measured.ingest, 99),
		pct("loadgen.query_p50_ms", &measured.queries.published, 50),
		pct("loadgen.query_p99_ms", &measured.queries.published, 99),
		pct("loadgen.fresh_query_p90_ms", &measured.queries.fresh, 90),
		{name: "loadgen.late_ms_p99", value: percentile(sortedCopy(lag.ms), 99), unit: "ms", samples: len(lag.ms)},
		{name: "loadgen.attempted", value: float64(attempted), unit: "count"},
		{name: "loadgen.succeeded", value: float64(attempted - failed), unit: "count"},
		{name: "loadgen.failed", value: float64(failed), unit: "count"},
		{name: "loadgen.error_ratio", value: ratio(float64(failed), float64(attempted)), unit: "ratio"},
	}
}

// validate collects every reason a phase's figures cannot be trusted:
// wrong answers, failed requests, and repetitions that disagree on the
// final state.
func (ph *phase) validate(ref final) []error {
	var problems []error
	problems = append(problems, ph.wrong...)
	if ph.failed > 0 {
		problems = append(problems, fmt.Errorf("%d of %d requests failed: %w", ph.failed, ph.attempted, errors.Join(ph.errs...)))
	}
	for i, rp := range ph.reps {
		if rp.final != ref {
			problems = append(problems, fmt.Errorf("repetition %d ended with digest %s and %d space words, the first with %s and %d: the seed did not reproduce the final state",
				i, rp.final.digest, rp.final.spaceWords, ref.digest, ref.spaceWords))
		}
	}
	return problems
}

// behindSchedule reports a run whose generator fell behind its open-loop
// schedule.
func behindSchedule(phases []*phase) error {
	var lag []float64
	for _, ph := range phases {
		lag = append(lag, ph.lag.ms...)
	}
	if m := median(lag); m > durMS(maxLag) {
		return fmt.Errorf("generator fell behind its schedule: median lag %.3f ms over %d open-loop sends exceeds %v; the run is invalid, not fast", m, len(lag), maxLag)
	}
	return nil
}
