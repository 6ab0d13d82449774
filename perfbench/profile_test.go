package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func stack(fns ...string) cpuSample {
	s := cpuSample{weight: 1}
	for _, f := range fns {
		s.stack = append(s.stack, frame{fn: f})
	}
	return s
}

// Samples go to the layer of their innermost repository frame; helper
// packages defer to their caller, and GC work is GC wherever it runs.
func TestLayerOfInnermostRepoFrame(t *testing.T) {
	c := newClassifier()
	for _, tc := range []struct {
		s    cpuSample
		want string
	}{
		{stack("runtime.mapaccess2_fast64", "astream/internal/core.(*SharedAggregation).fireWindowShared", "astream/internal/spe.(*instance).run"), "agg_fire"},
		{stack("astream/internal/bitset.Bits.Test", "astream/internal/core.(*SharedJoin).fireWindow"), "join"},
		{stack("astream/internal/expr.Comparison.Eval", "astream/internal/core.(*SharedSelection).evalEntry"), "selection"},
		{stack("astream/internal/expr.Canonicalize", "astream/internal/core.buildSelIndex", "astream/internal/core.(*SharedSelection).OnChangelog"), "changelog"},
		{stack("astream/internal/core.(*Router).Deliver", "astream/internal/core.(*SharedAggregation).OnTuple"), "router"},
		{stack("runtime.memmove", "astream/internal/core.(*Router).Register"), "changelog"},
		{stack("astream/internal/durable.(*WAL).Append", "astream/internal/checkpoint.(*Runner).Ingest", "main.(*feeder).step"), "durable"},
		{stack("astream/internal/core.(*SharedAggregation).OnBarrierDelta"), "durable"},
		{stack("astream/internal/spe.(*BatchCodec).EncodeBatch"), "spe"},
		{stack("astream/internal/core.(*Engine).Ingest", "main.(*feeder).step"), "spe"},
		{stack("astream/internal/core.(*slicer).sliceFor", "astream/internal/core.(*SharedJoin).OnTuple"), "join"},
		{stack("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), "gc"},
		{stack("runtime.mallocgc", "runtime.gcAssistAlloc", "astream/internal/core.(*SharedJoin).pairResults"), "gc"},
		{stack("time.Sleep", "main.(*pacer).next"), "bench"},
		{stack("runtime.futex", "runtime.findRunnable", "runtime.schedule"), "other"},
	} {
		if got := c.layerOf(tc.s); got != tc.want {
			t.Errorf("%v: layer %q, want %q", tc.s.stack, got, tc.want)
		}
	}
}

var sinkValue int

func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			sinkValue += i
		}
	}
}

// A real runtime/pprof profile decodes into samples whose stacks name this
// package's functions.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	found := false
	for _, s := range samples {
		if s.weight <= 0 {
			t.Fatalf("sample weight %d", s.weight)
		}
		for _, f := range s.stack {
			if f.fn == "astream/perfbench.spin" || f.fn == "main.spin" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample inside spin among %d", len(samples))
	}
	shares := layerShares(samples)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("layer shares sum to %v", sum)
	}
}
