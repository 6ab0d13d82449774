package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"astream/internal/checkpoint"
	"astream/internal/core"
	"astream/internal/durable"
	"astream/internal/event"
	"astream/internal/spe"
)

const (
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats = 3
	// deployProbeTargets fresh engines take deployProbeRequests query
	// requests each: enough for a p99 with ten samples beyond it.
	deployProbeTargets  = 5
	deployProbeRequests = 1000
	// probeCheckpoints timed checkpoints give a p90 with twenty samples
	// beyond it; the durable probe, there for correctness, cuts one every
	// durableProbeStride intervals.
	probeCheckpoints   = 200
	durableProbeStride = 4
	// probeReopens is how often the crashed in-memory state is recovered.
	probeReopens = 9
	// rateTolerance is how far the achieved open-loop rate may fall below
	// the offered rate before the run is invalid.
	rateTolerance = 0.05
	// ingestSpanEvery samples one Ingest call in this many for a span.
	ingestSpanEvery = 64
	// cpuProfileHz is the CPU profile's sampling rate in the traced run.
	cpuProfileHz = 500
	// latencyWindow splits the measured open loop by due time; latency
	// percentiles are taken per window and the median over windows is
	// reported, so a burst of stolen CPU time in one window does not decide
	// them.
	latencyWindow = 500 * time.Millisecond
)

// bench is one benchmark run: a workload, a seed and its accounting.
type bench struct {
	w       *workload
	seed    int64
	seconds float64
	clk     *wallClock
	tr      *tracer
	root    string // scratch directory for state and traces

	attempted int64
	failed    int64
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string
}

func (b *bench) notef(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) fail(n int, what string) {
	if n > 0 {
		b.failed += int64(n)
		b.notef("FAILED %d: %s", n, what)
	}
}

// feeder feeds one target from the workload's generators, applying the
// checkpoint schedule in event time.
type feeder struct {
	b         *bench
	t         *target
	in        *input
	qs        *querySource
	ckptEvery event.Time
	nextCkpt  event.Time
	ckptLimit int       // stop checkpointing after this many (0: no limit)
	quiesce   bool      // precede each timed checkpoint by an untimed one and a GC
	ckptMs    []float64 // checkpoint wall times
	ckptCPUms []float64 // process CPU time during each checkpoint
	inflight  []pending // sent query requests awaiting their ack
	errs      []error   // request errors since the last await
	record    bool      // record deploy latencies
	deployMs  []float64 // Submit/StopQuery → ack
	submitMs  []float64 // the Submit part of deployMs
	ingested  int64
	tr        *tracer // nil: no spans
	spanIn    bool    // emit sampled Ingest spans
}

func (b *bench) newFeeder(t *target, tr *tracer) *feeder {
	return &feeder{b: b, t: t, tr: tr, in: newInput(b.w, b.seed), qs: newQuerySource(b.w)}
}

// deploy submits the workload's initial query set.
func (d *feeder) deploy() error {
	for i := 0; i < d.b.w.queries; i++ {
		d.send("submit", func() (<-chan struct{}, error) { return d.t.submit(d.qs.next()) })
	}
	return d.await()
}

// pending is a sent query request waiting for its ack.
type pending struct {
	name  string
	id    int64 // span ID
	start int64
	ack   <-chan struct{}
}

// send sends one query request without waiting for its ack: the session
// releases a changelog once a batch of requests has arrived.
func (d *feeder) send(name string, fn func() (<-chan struct{}, error)) {
	d.b.attempted++
	id, _ := d.tr.begin()
	t0 := d.b.clk.now()
	ack, err := fn()
	if err != nil {
		d.errs = append(d.errs, fmt.Errorf("%s: %w", name, err))
		return
	}
	d.inflight = append(d.inflight, pending{name: name, id: id, start: t0, ack: ack})
}

// await waits for every sent request's ack, recording each request's
// latency from send to ack when d.record is set.
func (d *feeder) await() error {
	for _, p := range d.inflight {
		<-p.ack
		now := d.b.clk.now()
		if d.record {
			ms := float64(now-p.start) / 1e6
			d.deployMs = append(d.deployMs, ms)
			if p.name == "submit" {
				d.submitMs = append(d.submitMs, ms)
			}
		}
		d.tr.end(p.id, p.start, p.name)
	}
	d.inflight = d.inflight[:0]
	if len(d.errs) > 0 {
		err := errors.Join(d.errs...)
		d.b.fail(len(d.errs), err.Error())
		d.errs = nil
		return err
	}
	return nil
}

// replaceRound replaces pairs queries — stop the oldest, submit the next
// from next — as one session batch, and waits for the acks.
func (d *feeder) replaceRound(pairs int, next func() *core.Query) error {
	for i := 0; i < pairs; i++ {
		q := next()
		d.send("stop", d.t.stopOldest)
		d.send("submit", func() (<-chan struct{}, error) { return d.t.submit(q) })
	}
	return d.await()
}

// step ingests the next tuple, stamped with due (0: the engine stamps its
// ingestion time), after any checkpoint due at its event time.
func (d *feeder) step(due int64) error {
	tm := d.in.peekTime()
	if d.ckptEvery > 0 && tm >= d.nextCkpt && (d.ckptLimit == 0 || len(d.ckptMs) < d.ckptLimit) {
		d.nextCkpt += d.ckptEvery
		if d.quiesce {
			if err := d.t.checkpoint(); err != nil {
				d.b.fail(1, fmt.Sprintf("checkpoint: %v", err))
				return err
			}
			runtime.GC()
		}
		id, start := d.tr.begin()
		t0, c0 := d.b.clk.now(), cpuSeconds()
		err := d.t.checkpoint()
		d.ckptMs = append(d.ckptMs, float64(d.b.clk.now()-t0)/1e6)
		d.ckptCPUms = append(d.ckptCPUms, (cpuSeconds()-c0)*1e3)
		d.tr.end(id, start, "checkpoint")
		if err != nil {
			d.b.fail(1, fmt.Sprintf("checkpoint: %v", err))
			return err
		}
	}
	s, tu := d.in.next()
	tu.IngestNanos = due
	d.b.attempted++
	var err error
	if d.spanIn && d.ingested%ingestSpanEvery == 0 {
		id, start := d.tr.begin()
		err = d.t.ingest(s, tu)
		d.tr.end(id, start, "ingest")
	} else {
		err = d.t.ingest(s, tu)
	}
	d.ingested++
	if err != nil {
		d.b.fail(1, fmt.Sprintf("ingest: %v", err))
	}
	return err
}

// runUntil ingests closed-loop until the next tuple's event time reaches
// end.
func (d *feeder) runUntil(end event.Time) error {
	for d.in.peekTime() < end {
		if err := d.step(0); err != nil {
			return err
		}
	}
	return nil
}

// newTarget builds the system under test for this workload.
func (b *bench) newTarget(lat *latencySink) (*target, error) {
	cfg := engineConfig(b.w, b.clk)
	var sink core.Sink = lat
	if b.tr != nil {
		sink = &tracedSink{inner: lat, tr: b.tr}
	}
	return newEngineTarget(cfg, sink)
}

// setup builds the engine, deploys the query set, waits for every ack and
// warms up for one maximum window of event time, closed-loop.
func (b *bench) setup(lat *latencySink) (d *feeder, wallS, cpuS float64, err error) {
	t0, c0 := b.clk.now(), cpuSeconds()
	t, err := b.newTarget(lat)
	if err != nil {
		return nil, 0, 0, err
	}
	d = b.newFeeder(t, b.tr)
	if err := d.deploy(); err != nil {
		return nil, 0, 0, err
	}
	if err := d.runUntil(1 + b.w.maxWindow); err != nil {
		return nil, 0, 0, err
	}
	return d, float64(b.clk.now()-t0) / 1e9, cpuSeconds() - c0, nil
}

// openLoop offers R tuples/s per stream on an absolute schedule for dur.
// Tuples due in [settle, dur-tail) are measured: their results' latency,
// the generator's lateness, and the achieved rate.
func (d *feeder) openLoop(from int64, dur, settle, tail time.Duration, lat *latencySink) (achieved float64, lagMs []float64, busy float64, results uint64) {
	b := d.b
	rate := b.w.offered() * float64(b.w.streams)
	start := from - int64(settle)
	to, end := start+int64(dur-tail), start+int64(dur)
	lat.arm(from, to)
	p := newPacer(b.clk, start, rate)
	var inWindow, busyNs int64
	var resFrom, resTo uint64
	var seenFrom, seenTo bool
	for {
		due, late := p.next()
		if due >= end {
			break
		}
		if due >= from && due < to {
			lagMs = append(lagMs, float64(late)/1e6)
		}
		t0 := b.clk.now()
		if d.step(due) != nil {
			break
		}
		t1 := b.clk.now()
		if t0 >= from && t1 <= to {
			inWindow++
			busyNs += t1 - t0
		}
		if !seenFrom && t1 >= from {
			resFrom, seenFrom = lat.count.Load(), true
		}
		if !seenTo && t1 >= to {
			resTo, seenTo = lat.count.Load(), true
		}
	}
	lat.disarm()
	window := float64(to - from)
	achieved = float64(inWindow) / (rate * window / 1e9)
	busy = float64(busyNs) / window
	return achieved, lagMs, busy, resTo - resFrom
}

// closedLoop ingests as fast as Ingest returns for dur. After the first
// fill the exchange queues are full, so from then on a tuple enters only as
// one leaves; over the rest it reports the tuples ingested per stream per
// second of CPU time the process used, and per wall-clock second.
func (d *feeder) closedLoop(dur, fill time.Duration) (perCPU, perWall float64, err error) {
	clk := d.b.clk
	start := clk.now()
	fillEnd, end := start+int64(fill), start+int64(dur)
	var from, n0 int64
	var cpu0 float64
	for {
		now := clk.now()
		if now >= end {
			break
		}
		if from == 0 && now >= fillEnd {
			from, n0, cpu0 = now, d.ingested, cpuSeconds()
		}
		if err := d.step(0); err != nil {
			return 0, 0, err
		}
	}
	n := float64(d.ingested-n0) / float64(d.b.w.streams)
	return n / (cpuSeconds() - cpu0), n / (float64(clk.now()-from) / 1e9), nil
}

// liveHeapMB forces a collection and returns the heap it left live, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// cpuSeconds returns the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// opCounters is a snapshot of the engine's operator counters.
type opCounters struct {
	selected, dropped, joined, agg, pairsDone, pairsReuse, indexBuilds uint64
	qsgNs, bitsetNs, routerNs, routerN                                 uint64
}

func countersOf(e *core.Engine) opCounters {
	m := e.Metrics()
	return opCounters{
		selected: atomic.LoadUint64(&m.Selected), dropped: atomic.LoadUint64(&m.Dropped),
		joined: atomic.LoadUint64(&m.JoinedOut), agg: atomic.LoadUint64(&m.AggOut),
		pairsDone: atomic.LoadUint64(&m.PairsDone), pairsReuse: atomic.LoadUint64(&m.PairsReuse),
		indexBuilds: atomic.LoadUint64(&m.IndexBuilds),
		qsgNs:       atomic.LoadUint64(&m.QuerySetGen.Nanos), bitsetNs: atomic.LoadUint64(&m.BitsetOps.Nanos),
		routerNs: atomic.LoadUint64(&m.RouterCopy.Nanos), routerN: atomic.LoadUint64(&m.RouterCopy.Count),
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// run executes every phase of the workload.
func (b *bench) run() error {
	b.e2e = map[string]float64{}
	b.layer = map[string]float64{}
	var heap *heapSampler
	if b.tr != nil {
		heap = startHeapSampler(20 * time.Millisecond)
	}
	S := time.Duration(b.seconds * float64(time.Second))

	// Set-up, repeated; the last engine is the one measured.
	var d *feeder
	var lat *latencySink
	var setupWall, setupCPU []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			b.retire(d)
		}
		lat = newLatencySink(b.clk)
		endPhase := b.tr.startPhase("setup")
		var wallS, cpuS float64
		var err error
		d, wallS, cpuS, err = b.setup(lat)
		endPhase()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupWall, setupCPU = append(setupWall, wallS), append(setupCPU, cpuS)
	}
	// Set-up time is the CPU time the process spent on it, which stolen
	// CPU time does not inflate; the wall time is printed beside it.
	b.e2e["setup_s"] = median(setupCPU)
	b.notef("set-up: median CPU time %.4f s, wall time %.4f s over %d", median(setupCPU), median(setupWall), setupRepeats)
	live := liveHeapMB()

	// Open loop at rate R: event-time latency.
	endPhase := b.tr.startPhase("open")
	d.spanIn = b.tr != nil
	openFrom := b.clk.now() + int64(time.Millisecond) + int64(S/10)
	achieved, lagMs, busy, results := d.openLoop(openFrom, S*4/10, S/10, S/10, lat)
	endPhase()
	var p50s, p99s []float64
	var nLat int
	for _, win := range lat.windows(openFrom, int64(latencyWindow)) {
		nLat += len(win)
		if supports(len(win), 99) {
			p50s = append(p50s, pctOr0(win, 50))
			p99s = append(p99s, pctOr0(win, 99))
		}
	}
	b.notef("open loop: offered %.0f tup/s/stream, achieved %.4f of it, generator lag p99 %.3f ms",
		b.w.offered(), achieved, pctOr0(lagMs, 99))
	b.notef("latency: %d samples; %d windows of %v hold enough for a p99; median of window p50s %.4f ms (IQR %.1f%% of it), of window p99s %.4f ms (IQR %.1f%%)",
		nLat, len(p99s), latencyWindow, median(p50s), 100*spread(p50s), median(p99s), 100*spread(p99s))
	if achieved < 1-rateTolerance {
		return fmt.Errorf("invalid run: generator achieved %.4f of the offered rate (tolerance %.2f); no latency reported", achieved, rateTolerance)
	}
	if len(p99s) < 3 {
		return fmt.Errorf("invalid run: only %d latency windows support a p99", len(p99s))
	}
	// The engine's footprint at rate R: the larger live heap after a
	// forced collection at the end of set-up and of the open loop. (At the
	// end of the closed loop it would also count however many tuples the
	// full exchange queues happened to hold.)
	live = max(live, liveHeapMB())
	b.e2e["mem_peak_mb"] = live
	b.e2e["latency_p50_ms"] = median(p50s)
	b.e2e["latency_p99_ms"] = median(p99s)
	b.layer["gen.achieved_ratio"] = achieved
	b.layer["gen.lag_p99_ms"] = pctOr0(lagMs, 99)
	b.layer["ingest.busy_share"] = busy
	b.layer["sink.results_per_s"] = float64(results) / (b.seconds * 2 / 10)

	// Closed loop: capacity. A traced run measures it twice, untraced and
	// then traced with the CPU profile on, to show the tracing overhead.
	d.spanIn = false
	perCPU, perWall, err := d.closedLoop(S*6/10, S/10)
	if err != nil {
		return err
	}
	b.e2e["capacity_tup_cpu_s"] = perCPU
	b.notef("closed loop: %.1f tup/s per stream over wall time, %.1f per CPU-second (%.2f CPUs busy)", perWall, perCPU, perWall/perCPU)
	if b.tr != nil {
		if err := b.tracedCapacity(d, S*6/10, S/10); err != nil {
			return err
		}
	}

	// Drain.
	endPhase = b.tr.startPhase("drain")
	id, start := b.tr.begin()
	t0 := b.clk.now()
	b.retire(d)
	b.tr.end(id, start, "drain")
	endPhase()
	b.layer["drain_ms"] = float64(b.clk.now()-t0) / 1e6

	endPhase = b.tr.startPhase("deploy")
	err = b.deployProbe()
	endPhase()
	if err != nil {
		return err
	}

	// Checkpoint/recovery probe and the correctness check.
	endPhase = b.tr.startPhase("probe")
	t0 = b.clk.now()
	err = b.probe()
	endPhase()
	b.notef("probe and correctness check took %.2f s", float64(b.clk.now()-t0)/1e9)
	if err != nil {
		return err
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		b.notef("memory: live heap peak %.1f MB; process peak RSS %.1f MB", live, float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	if heap != nil {
		b.layer["heap.inuse_peak_mb"] = heap.finish()
	}
	if b.w.name == "agg-sliding" && b.tr != nil {
		b.singleThreaded()
	}
	return nil
}

// deployProbe measures query deployment: deployProbeTargets fresh engines,
// each holding the workload's live query set and no data, take
// deployProbeRequests requests each (stop the oldest query, resubmit its
// definition) in session-batch rounds. With no tuples in flight the figures
// isolate the session, changelog and router path from CPU contention. A
// stopped query's sink stays registered until the engine drains, so bounding
// the requests per engine bounds the router table each request copies; the
// changelogs are applied when each engine drains. Each percentile is taken
// per engine and the median over engines is reported, so a burst of stolen
// CPU time on one engine does not decide it.
func (b *bench) deployProbe() error {
	var p50s, p99s, submitMs []float64
	var builds uint64
	changelogs := 0
	for k := 0; k < deployProbeTargets; k++ {
		t, err := b.newTarget(newLatencySink(b.clk))
		if err != nil {
			return err
		}
		d := b.newFeeder(t, b.tr)
		if err := d.deploy(); err != nil {
			return err
		}
		runtime.GC()
		d.record = true
		for i := 0; i < deployProbeRequests; i += batch {
			if err := d.replaceRound(batch/2, func() *core.Query { return d.t.defs[0] }); err != nil {
				return err
			}
		}
		d.record = false
		b.retire(d)
		b.timing(fmt.Sprintf("deploy (engine %d)", k+1), d.deployMs)
		p50s = append(p50s, pctOr0(d.deployMs, 50))
		p99s = append(p99s, pctOr0(d.deployMs, 99))
		submitMs = append(submitMs, d.submitMs...)
		builds += countersOf(t.eng).indexBuilds
		changelogs += (b.w.queries+batch-1)/batch + deployProbeRequests/batch
	}
	b.e2e["deploy_p50_ms"] = median(p50s)
	b.layer["deploy_p99_ms"] = median(p99s)
	b.layer["submit.us_per_call"] = mean(submitMs) * 1e3
	b.layer["index_builds_per_changelog"] = ratio(builds, uint64(changelogs))
	return nil
}

// timing notes a timed quantity's sample count, median and highest
// percentile with at least ten samples beyond it.
func (b *bench) timing(name string, ms []float64) {
	p, v, n, ok := tailPercentile(ms)
	if !ok {
		b.notef("%s: %d samples, too few for any percentile", name, n)
		return
	}
	b.notef("%s: %d samples, p50 %.4f ms, p%g %.4f ms", name, n, pctOr0(ms, 50), p, v)
}

// retire drains an engine target and charges its failures.
func (b *bench) retire(d *feeder) {
	d.t.eng.Drain()
	b.fail(d.t.failures(), "engine-reported failures (session errors, instance failures, quarantines, late tuples)")
}

// tracedCapacity repeats the closed loop with spans and a CPU profile, and
// derives the per-layer counters from it.
func (b *bench) tracedCapacity(d *feeder, dur, fill time.Duration) error {
	var prof bytes.Buffer
	endPhase := b.tr.startPhase("capacity")
	d.spanIn = true
	before := countersOf(d.t.eng)
	n0 := d.ingested
	// A finer sampling rate than the default 100 Hz; the runtime warns on
	// stderr that StartCPUProfile cannot reset it, and keeps this one.
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	traced, _, err := d.closedLoop(dur, fill)
	pprof.StopCPUProfile()
	d.spanIn = false
	after := countersOf(d.t.eng)
	endPhase()
	if err != nil {
		return err
	}
	untraced := b.e2e["capacity_tup_cpu_s"]
	b.notef("tracing overhead: capacity untraced %.1f tup/cpu-s, traced %.1f tup/cpu-s, difference %+.2f%%",
		untraced, traced, 100*(traced-untraced)/untraced)
	tuples := uint64(d.ingested - n0)
	b.layer["sel.match_ratio"] = ratio(after.selected-before.selected, after.selected-before.selected+after.dropped-before.dropped)
	b.layer["sel.querysetgen_ns_per_tuple"] = ratio(after.qsgNs-before.qsgNs, tuples)
	b.layer["agg.results_per_tuple"] = ratio(after.agg-before.agg, tuples)
	b.layer["agg.bitset_ns_per_tuple"] = ratio(after.bitsetNs-before.bitsetNs, tuples)
	b.layer["join.pair_reuse_ratio"] = ratio(after.pairsReuse-before.pairsReuse, after.pairsReuse-before.pairsReuse+after.pairsDone-before.pairsDone)
	b.layer["join.results_per_tuple"] = ratio(after.joined-before.joined, tuples)
	b.layer["router.copy_ns_per_result"] = ratio(after.routerNs-before.routerNs, after.routerN-before.routerN)
	b.layer["ingest.ns_per_call"] = mean(b.tr.durations("ingest", "capacity"))
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return err
	}
	shares := layerShares(samples)
	var parts []string
	for _, l := range cpuLayers {
		parts = append(parts, fmt.Sprintf("%s %.3f", l, shares[l]))
	}
	b.notef("cpu shares (traced capacity phase, %d samples): %s", len(samples), strings.Join(parts, ", "))
	for _, l := range []string{"spe", "selection", "agg_fire", "agg_fold", "agg_selfanout", "join", "router", "changelog", "gc"} {
		b.layer["cpu."+l+"_share"] = shares[l]
	}
	return nil
}

// singleThreaded prints the Parallelism-1, single-node capacity of this
// workload as a reference (not a gated metric).
func (b *bench) singleThreaded() {
	cfg := engineConfig(b.w, b.clk)
	cfg.Parallelism, cfg.Nodes = 1, 1
	t, err := newEngineTarget(cfg, newLatencySink(b.clk))
	if err != nil {
		b.notef("single-threaded reference: %v", err)
		return
	}
	d := b.newFeeder(t, nil)
	if d.deploy() == nil && d.runUntil(1+b.w.maxWindow) == nil {
		S := time.Duration(b.seconds * float64(time.Second))
		if perCPU, perWall, err := d.closedLoop(S/4, S/20); err == nil {
			b.notef("single-threaded reference (Parallelism 1, Nodes 1): capacity %.1f tup/cpu-s, %.1f tup/s over wall time", perCPU, perWall)
		}
	}
	t.eng.Drain()
}

// probe runs a fixed prefix of the workload's input on the reference job
// (Parallelism 1, Nodes 1) and on the measured configuration behind both
// checkpoint backends, each crashed after a fixed tail and recovered, and
// checks that the recovered results equal the reference's.
func (b *bench) probe() error {
	w := b.w
	warm := 1 + w.maxWindow
	end := warm + probeCheckpoints*w.probeEvery + w.probeEvery/2 + 1

	// The reference: the same job at Parallelism 1, Nodes 1.
	t0 := b.clk.now()
	sink := &collectSink{}
	t, err := newEngineTarget(referenceConfig(w), sink)
	if err != nil {
		return err
	}
	d := b.newFeeder(t, nil)
	err = d.deploy()
	if err == nil {
		err = d.runUntil(end)
	}
	t.eng.Drain()
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	b.fail(t.failures(), "engine-reported failures in the reference run")
	ref := sink.sorted()
	if len(ref) == 0 {
		b.fail(1, "reference run produced no results")
	}
	t1 := b.clk.now()

	// The in-memory backend gives the gated checkpoint and recovery
	// times; the durable one must recover the same results from disk.
	mem, err := b.crashRecover("", warm, end, ref, 1, probeReopens)
	if err != nil {
		return err
	}
	t2 := b.clk.now()
	dur, err := b.crashRecover(stateDir(b.root, "probe"), warm, end, ref, durableProbeStride, 1)
	if err != nil {
		return err
	}
	b.timing("checkpoint CPU time (in-memory backend)", mem.ckptCPUms)
	b.timing("checkpoint wall time (in-memory backend)", mem.ckptMs)
	b.notef("recovery (in-memory backend): median CPU time %.4f ms, wall time %.4f ms over %d", median(mem.reopenCPUms), median(mem.reopenMs), len(mem.reopenMs))
	b.timing("checkpoint wall time (durable backend)", dur.ckptMs)
	b.notef("recovery (durable backend, durable.Open): wall time %.4f ms", dur.reopenMs[0])
	b.e2e["checkpoint_cpu_p50_ms"] = pctOr0(mem.ckptCPUms, 50)
	b.layer["checkpoint_cpu_p90_ms"] = pctOr0(mem.ckptCPUms, 90)
	b.layer["recovery_cpu_ms"] = median(mem.reopenCPUms)
	b.notef("correctness: %d reference results over %d event-ms (reference and prefix runs %.2f s); in-memory probe %.2f s; durable probe %.2f s",
		len(ref), end-1, float64(t1-t0)/1e9, float64(t2-t1)/1e9, float64(b.clk.now()-t2)/1e9)
	return nil
}

// crashRun is what crashRecover measured.
type crashRun struct {
	ckptMs      []float64 // Runner.Checkpoint wall times
	ckptCPUms   []float64 // process CPU time during each checkpoint
	reopenMs    []float64 // recovery until the runner is ready
	reopenCPUms []float64 // process CPU time during each recovery
}

// crashRecover runs the prefix up to end on a checkpoint runner — durable in
// dir, or in memory when dir is empty — cutting probeCheckpoints/stride
// checkpoints every stride·probeEvery event-ms after warm, then crashes it
// and recovers it reopens times. In memory, each timed checkpoint follows an
// untimed one that drains the tuples in flight, and a collection, so it
// times snapshotting and storing the state rather than how full the
// exchange queues happened to be or a collection cycle it overlapped. Every
// recovery but the last crashes again; recovery writes nothing, so each
// starts from the same state. The last finishes, and its committed output
// must equal the reference.
func (b *bench) crashRecover(dir string, warm, end event.Time, ref []uint64, stride, reopens int) (crashRun, error) {
	var out crashRun
	w := b.w
	cfg := engineConfig(w, b.clk)
	goroutines := runtime.NumGoroutine()
	runtime.GC()
	t, err := newRunnerTarget(cfg, dir)
	if err != nil {
		return out, err
	}
	d := b.newFeeder(t, b.tr)
	every := w.probeEvery * event.Time(stride)
	d.ckptEvery, d.nextCkpt, d.ckptLimit = every, warm+every, probeCheckpoints/stride
	d.quiesce = dir == ""
	// A traced run profiles the durable probe: its share of CPU time in
	// checkpoint and durable code is cpu.durable_share.
	var prof bytes.Buffer
	profiling := b.tr != nil && dir != ""
	if profiling {
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return out, err
		}
	}
	err = d.deploy()
	if err == nil {
		err = d.runUntil(end)
	}
	if profiling {
		pprof.StopCPUProfile()
		samples, perr := parseCPUProfile(prof.Bytes())
		if perr != nil {
			return out, perr
		}
		b.layer["cpu.durable_share"] = layerShares(samples)["durable"]
	}
	if err != nil {
		return out, err
	}
	out.ckptMs, out.ckptCPUms = d.ckptMs, d.ckptCPUms
	if dir != "" {
		b.layer["ckpt.wal_bytes_per_tuple"] = float64(dirBytes(filepath.Join(dir, "wal"))) / float64(d.ingested)
		full, delta := snapshotBytes(filepath.Join(dir, "snap"))
		b.layer["ckpt.snap_bytes_full"] = full
		b.layer["ckpt.snap_bytes_delta"] = delta
	}
	manifest := t.runner.Manifest()
	committed := t.runner.Crash()
	if t.store != nil {
		if err := t.store.Close(); err != nil {
			return out, err
		}
	}
	waitGoroutines(goroutines)

	for i := 0; i < reopens; i++ {
		runtime.GC() // start each timed recovery from the same heap state
		id, start := d.tr.begin()
		t0, c0 := b.clk.now(), cpuSeconds()
		var r *checkpoint.Runner
		var s *durable.Store
		if dir == "" {
			r, err = checkpoint.RecoverFromStore(cfg, t.log, manifest, committed, t.runner.Store())
		} else {
			r, s, err = durable.Open(durableConfig(cfg, dir), committed, durable.Options{})
		}
		if err != nil {
			return out, fmt.Errorf("recovery: %w", err)
		}
		out.reopenMs = append(out.reopenMs, float64(b.clk.now()-t0)/1e6)
		out.reopenCPUms = append(out.reopenCPUms, (cpuSeconds()-c0)*1e3)
		d.tr.end(id, start, "recover")
		if s != nil && i == 0 {
			if offs := s.Offsets(); len(offs) > 0 {
				b.layer["recovery.replayed_records"] = float64(s.WAL().Len() - offs[len(offs)-1])
			}
		}
		closeStore := func() error {
			if s == nil {
				return nil
			}
			return s.Close()
		}
		if i < reopens-1 {
			r.Crash()
			if err := closeStore(); err != nil {
				return out, err
			}
			waitGoroutines(goroutines)
			continue
		}
		got := r.Finish()
		b.fail(len(r.Engine().InstanceFailures()), "instance failures after recovery")
		if err := closeStore(); err != nil {
			return out, err
		}
		b.fail(diffCount(ref, hashAll(got)), "results after crash and recovery differing from the reference")
	}
	if dir != "" {
		return out, os.RemoveAll(dir)
	}
	return out, nil
}

// waitGoroutines waits (up to 10 s) until at most n goroutines run, so a
// crashed incarnation's background drain does not overlap timed recoveries.
func waitGoroutines(n int) {
	for i := 0; i < 10000 && runtime.NumGoroutine() > n; i++ {
		time.Sleep(time.Millisecond)
	}
}

func dirBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// snapshotBytes returns the mean bytes per retained checkpoint of full and
// of delta snapshot deposits (a delta deposit starts with
// spe.DeltaSnapshotMagic).
func snapshotBytes(dir string) (full, delta float64) {
	entries, _ := os.ReadDir(dir)
	barriers := map[string]bool{}
	var f, dl int64
	for _, e := range entries {
		name := e.Name()
		parts := strings.SplitN(name, "-", 3)
		if len(parts) < 3 || parts[0] != "snap" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		barriers[parts[1]] = true
		if len(data) > 0 && data[0] == spe.DeltaSnapshotMagic {
			dl += int64(len(data))
		} else {
			f += int64(len(data))
		}
	}
	if len(barriers) == 0 {
		return 0, 0
	}
	return float64(f) / float64(len(barriers)), float64(dl) / float64(len(barriers))
}

func pctOr0(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return percentile(sortedCopy(values), p)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}
