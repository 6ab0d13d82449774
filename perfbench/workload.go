package main

import (
	"fmt"

	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/gen"
)

// workload is one input the benchmark drives: a fixed live query set and
// the data rate. README.md says why each exists and which layers it loads.
type workload struct {
	name    string
	streams int
	// perMs is D: tuples per stream per event-millisecond. Event time
	// advances one millisecond every D tuples on every stream, so the work
	// per tuple does not depend on how fast tuples arrive; the open loop
	// offers R = 1000·D tuples/s per stream, which keeps event time in step
	// with wall time.
	perMs float64
	// queries is the live query set size; newQuery draws one member.
	queries  int
	newQuery func(g *gen.Queries) *core.Query
	qcfg     gen.QueryConfig
	// maxWindow is the longest window in event-ms: set-up warms up for
	// this long so every window holds state before measuring.
	maxWindow event.Time
	// probeEvery is the checkpoint cadence, in event-ms, of the
	// checkpoint/recovery probe that every workload runs.
	probeEvery event.Time
}

// batch is the session batch size: one replacement (a stop and a submit)
// is released as one changelog.
const batch = 2

// offered returns the open-loop rate in tuples/s per stream.
func (w *workload) offered() float64 { return 1000 * w.perMs }

var workloads = []*workload{
	{
		name: "agg-sliding", streams: 1, perMs: 5, queries: 32,
		qcfg:      gen.QueryConfig{FieldMax: 1000, WindowMin: 200, WindowMax: 2000, Streams: 1, MinSelectivity: 0.2},
		newQuery:  (*gen.Queries).Aggregation,
		maxWindow: 2000, probeEvery: 10,
	},
	{
		name: "join-sliding", streams: 2, perMs: 0.5, queries: 8,
		qcfg:      gen.QueryConfig{FieldMax: 1000, WindowMin: 200, WindowMax: 800, Streams: 2, MinSelectivity: 0.2},
		newQuery:  (*gen.Queries).Join,
		maxWindow: 800, probeEvery: 10,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const (
	dataKeys = 1000
	fieldMax = 1000
)

// querySeed fixes every workload's query set, so runs with different --seed
// values do the same work on different tuple data. (Cost varies several-fold
// between random draws of 32 sliding windows, which would swamp any change
// a run is meant to detect.)
const querySeed = 1

// querySource yields a workload's queries in a fixed order.
type querySource struct {
	w *workload
	g *gen.Queries
}

func newQuerySource(w *workload) *querySource {
	return &querySource{w: w, g: gen.NewQueries(w.qcfg, querySeed)}
}

func (s *querySource) next() *core.Query { return s.w.newQuery(s.g) }

// input generates the workload's tuples in ingestion order: D tuples per
// event-ms on each stream, streams interleaved. Tuple n of a stream has
// event time 1 + ⌊n/D⌋.
type input struct {
	w    *workload
	data []*gen.Data
	n    int64 // tuples generated across all streams
}

func newInput(w *workload, seed int64) *input {
	in := &input{w: w}
	for s := 0; s < w.streams; s++ {
		in.data = append(in.data, gen.NewData(gen.DataConfig{Keys: dataKeys, FieldMax: fieldMax}, seed*31+int64(s)))
	}
	return in
}

// peekTime returns the event time of the next tuple.
func (in *input) peekTime() event.Time {
	return 1 + event.Time(float64(in.n/int64(in.w.streams))/in.w.perMs)
}

// next returns the next tuple and its stream.
func (in *input) next() (int, event.Tuple) {
	s := int(in.n % int64(in.w.streams))
	t := in.data[s].Next(in.peekTime())
	t.Stream = uint8(s)
	in.n++
	return s, t
}
