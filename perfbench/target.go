package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"astream/internal/checkpoint"
	"astream/internal/core"
	"astream/internal/durable"
	"astream/internal/event"
)

// engineConfig is the configuration every measured engine uses: two
// instances per shared operator and two simulated nodes, so the cross-node
// codec is on. The session's batch is one query replacement, which the
// engine releases as one changelog inside the request that fills it, so
// changelog positions in the stream are a function of the input alone.
func engineConfig(w *workload, clk *wallClock) core.Config {
	return core.Config{
		Streams:     w.streams,
		Parallelism: 2,
		Nodes:       2,
		BatchSize:   batch,
		NowNanos:    clk.now,
	}
}

// referenceConfig is the single-instance, single-node job the correctness
// check compares against.
func referenceConfig(w *workload) core.Config {
	return core.Config{Streams: w.streams, Parallelism: 1, Nodes: 1, BatchSize: batch}
}

// target is the system under test as the generator sees it: an engine, or
// a checkpoint runner (in-memory or durable backend) wrapping one.
type target struct {
	eng    *core.Engine
	runner *checkpoint.Runner
	log    *checkpoint.Log // in-memory runner's input log
	store  *durable.Store  // durable runner's store
	sink   core.Sink       // sink for new queries (engine targets)
	live   []int           // running queries' engine IDs, oldest first (engine targets)
	defs   []*core.Query   // definitions of live, index for index
}

// newEngineTarget builds an in-memory engine delivering to sink.
func newEngineTarget(cfg core.Config, sink core.Sink) (*target, error) {
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &target{eng: eng, sink: sink}, nil
}

// newRunnerTarget builds a checkpoint runner: on the durable backend rooted
// at dir, or, when dir is empty, on the in-memory input log and snapshot
// store.
func newRunnerTarget(cfg core.Config, dir string) (*target, error) {
	if dir == "" {
		log := &checkpoint.Log{}
		r, err := checkpoint.NewRunner(cfg, log, checkpoint.NewTxSink())
		if err != nil {
			return nil, err
		}
		return &target{eng: r.Engine(), runner: r, log: log}, nil
	}
	r, s, err := durable.Open(durableConfig(cfg, dir), nil, durable.Options{})
	if err != nil {
		return nil, err
	}
	return &target{eng: r.Engine(), runner: r, store: s}, nil
}

// durableConfig points cfg at the state directory dir, with an incremental
// snapshot every checkpoint but every third.
func durableConfig(cfg core.Config, dir string) core.Config {
	cfg.StateDir = dir
	cfg.SnapshotDeltaEvery = 3
	return cfg
}

// closedAck is the ack of a request a checkpoint runner has already
// applied: the runner submits synchronously.
var closedAck = func() <-chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// submit deploys q and returns the request's ack channel.
func (t *target) submit(q *core.Query) (<-chan struct{}, error) {
	if t.runner != nil {
		if err := t.runner.Submit(q); err != nil {
			return nil, err
		}
		return closedAck, nil
	}
	id, ack, err := t.eng.Submit(q, t.sink)
	if err != nil {
		return nil, err
	}
	t.live = append(t.live, id)
	t.defs = append(t.defs, q)
	return ack, nil
}

// stopOldest deletes the longest-running query of an engine target and
// returns the request's ack channel.
func (t *target) stopOldest() (<-chan struct{}, error) {
	id := t.live[0]
	t.live, t.defs = t.live[1:], t.defs[1:]
	return t.eng.StopQuery(id)
}

func (t *target) ingest(stream int, tu event.Tuple) error {
	if t.runner != nil {
		return t.runner.Ingest(stream, tu)
	}
	return t.eng.Ingest(stream, tu)
}

// checkpoint cuts a checkpoint on a runner target (a no-op otherwise).
func (t *target) checkpoint() error {
	if t.runner == nil {
		return nil
	}
	_, err := t.runner.Checkpoint()
	return err
}

// failures counts what the engine reports as failed: rejected changelog
// batches, supervised instance failures, quarantined queries and late
// tuples.
func (t *target) failures() int {
	m := t.eng.Metrics()
	return len(t.eng.SessionErrors()) + len(t.eng.InstanceFailures()) + len(t.eng.Quarantined()) +
		int(atomic.LoadUint64(&m.Late))
}

// collectSink keeps a hash of every result's canonical form, for the
// correctness check.
type collectSink struct {
	mu  sync.Mutex
	out []uint64
}

func (c *collectSink) OnResult(r core.Result) {
	h := hashCanon(checkpoint.Canon(r))
	c.mu.Lock()
	c.out = append(c.out, h)
	c.mu.Unlock()
}

func (c *collectSink) sorted() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]uint64(nil), c.out...)
	slices.Sort(out)
	return out
}

func hashCanon(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// hashAll hashes canonical results into a sorted multiset.
func hashAll(canon []string) []uint64 {
	out := make([]uint64, len(canon))
	for i, s := range canon {
		out[i] = hashCanon(s)
	}
	slices.Sort(out)
	return out
}

// latencySink counts results and, while armed, records the event-time
// latency of every result whose freshest contributing tuple was due inside
// the measured window [from, to): delivery time minus that due time
// (Result.IngestNanos).
type latencySink struct {
	clk      *wallClock
	count    atomic.Uint64
	from, to atomic.Int64
	mu       sync.Mutex
	samples  []latencySample
}

type latencySample struct {
	due int64   // ns
	ms  float64 // latency
}

func newLatencySink(clk *wallClock) *latencySink {
	s := &latencySink{clk: clk}
	s.from.Store(-1)
	return s
}

func (s *latencySink) OnResult(r core.Result) {
	s.count.Add(1)
	from := s.from.Load()
	if from < 0 || r.IngestNanos < from || r.IngestNanos >= s.to.Load() {
		return
	}
	lat := float64(s.clk.now()-r.IngestNanos) / 1e6
	s.mu.Lock()
	s.samples = append(s.samples, latencySample{due: r.IngestNanos, ms: lat})
	s.mu.Unlock()
}

// arm selects the window of due times whose results are sampled.
func (s *latencySink) arm(from, to int64) {
	s.to.Store(to)
	s.from.Store(from)
}

func (s *latencySink) disarm() { s.from.Store(-1) }

// windows splits the samples by due time into windows of width ns from
// from on.
func (s *latencySink) windows(from, width int64) [][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][]float64
	for _, x := range s.samples {
		i := int((x.due - from) / width)
		for len(out) <= i {
			out = append(out, nil)
		}
		out[i] = append(out[i], x.ms)
	}
	return out
}

// diffCount returns how many entries the two sorted multisets do not share.
func diffCount(a, b []uint64) int {
	i, j, d := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			d++
			i++
		default:
			d++
			j++
		}
	}
	return d + len(a) - i + len(b) - j
}

func stateDir(root, label string) string {
	return fmt.Sprintf("%s/%s-%d", root, label, os.Getpid())
}
