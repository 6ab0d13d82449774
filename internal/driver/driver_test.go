package driver

import (
	"testing"
	"time"

	"astream/internal/baseline"
	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/gen"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

func aggQuery() *core.Query {
	return &core.Query{
		Kind:       core.KindAggregation,
		Arity:      1,
		Predicates: []expr.Predicate{expr.True()},
		Window:     window.TumblingSpec(10),
		Agg:        sqlstream.AggSum,
		AggField:   0,
	}
}

func newSharedSUT(t *testing.T, streams int) SUT {
	t.Helper()
	e, err := core.NewEngine(core.Config{
		Streams: streams, Parallelism: 2, BatchSize: 1,
		BatchTimeout: time.Hour, WatermarkEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDriverEndToEndShared(t *testing.T) {
	d := New(Config{Streams: 1, RequestBatch: 4}, newSharedSUT(t, 1))
	d.EnqueueRequest(Request{Query: aggQuery()})
	d.EnqueueRequest(Request{Query: aggQuery()})
	if n, err := d.PumpRequests(); err != nil || n != 2 {
		t.Fatalf("PumpRequests = %d, %v", n, err)
	}
	if d.DeployLat.Count() != 2 {
		t.Fatalf("deploy latencies recorded = %d", d.DeployLat.Count())
	}
	d.StartPumps()
	g := gen.NewData(gen.DefaultDataConfig(), 1)
	d.GenerateAndOffer([]*gen.Data{g}, 500, 1, 1)
	d.Finish()
	if d.Ingested.Total() != 500 {
		t.Fatalf("ingested = %d", d.Ingested.Total())
	}
	ids := d.QueryIDs()
	if len(ids) != 2 {
		t.Fatalf("query ids = %v", ids)
	}
	for _, id := range ids {
		if d.ResultCount(id) == 0 {
			t.Fatalf("query %d produced no results", id)
		}
	}
	if d.Results.Total() == 0 {
		t.Fatal("no results metered")
	}
}

func TestDriverStopOrdinal(t *testing.T) {
	d := New(Config{Streams: 1, RequestBatch: 1}, newSharedSUT(t, 1))
	d.EnqueueRequest(Request{Query: aggQuery()})
	if _, err := d.PumpRequests(); err != nil {
		t.Fatal(err)
	}
	d.StartPumps()
	g := gen.NewData(gen.DefaultDataConfig(), 2)
	d.GenerateAndOffer([]*gen.Data{g}, 100, 1, 1)
	// Stop the first query.
	d.EnqueueRequest(Request{StopOrdinal: 1})
	if _, err := d.PumpRequests(); err != nil {
		t.Fatal(err)
	}
	d.GenerateAndOffer([]*gen.Data{g}, 100, 101, 1)
	d.Finish()
	if got := d.DeployLat.Count(); got != 2 {
		t.Fatalf("deploy records = %d, want 2 (create+stop)", got)
	}
	// Stop of an unknown ordinal is ignored.
	d2 := New(Config{Streams: 1}, newSharedSUT(t, 1))
	d2.EnqueueRequest(Request{StopOrdinal: 7})
	if n, err := d2.PumpRequests(); err != nil || n != 1 {
		t.Fatalf("pump = %d, %v", n, err)
	}
	d2.Finish()
}

func TestDriverWithBaseline(t *testing.T) {
	be, err := baseline.NewEngine(baseline.Config{Streams: 1, Parallelism: 1, WatermarkEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := New(Config{Streams: 1}, be)
	d.EnqueueRequest(Request{Query: aggQuery()})
	if _, err := d.PumpRequests(); err != nil {
		t.Fatal(err)
	}
	d.StartPumps()
	g := gen.NewData(gen.DefaultDataConfig(), 3)
	d.GenerateAndOffer([]*gen.Data{g}, 300, 1, 1)
	d.Finish()
	if d.ResultCount(d.QueryIDs()[0]) == 0 {
		t.Fatal("baseline produced no results through the driver")
	}
}

func TestDriverBatching(t *testing.T) {
	d := New(Config{Streams: 1, RequestBatch: 3}, newSharedSUT(t, 1))
	for i := 0; i < 7; i++ {
		d.EnqueueRequest(Request{Query: aggQuery()})
	}
	if d.PendingRequests() != 7 {
		t.Fatalf("pending = %d", d.PendingRequests())
	}
	counts := []int{}
	for {
		n, err := d.PumpRequests()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		counts = append(counts, n)
	}
	if len(counts) != 3 || counts[0] != 3 || counts[1] != 3 || counts[2] != 1 {
		t.Fatalf("batch sizes = %v, want [3 3 1]", counts)
	}
	d.Finish()
}

func TestTryOfferTupleBackpressure(t *testing.T) {
	d := New(Config{Streams: 1, TupleQueueCap: 2}, newSharedSUT(t, 1))
	// No pumps running: the queue fills.
	if !d.TryOfferTuple(0, event.Tuple{}) || !d.TryOfferTuple(0, event.Tuple{}) {
		t.Fatal("first two offers should be accepted")
	}
	if d.TryOfferTuple(0, event.Tuple{}) {
		t.Fatal("third offer should be rejected (queue full)")
	}
	d.StartPumps()
	d.Finish()
}
