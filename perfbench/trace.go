package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"astream/internal/core"
)

// span is one traced call into the program, recorded by the benchmark
// around a public API call. Spans of one run share the run's trace; parent
// links a span to the phase span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, which is how untraced runs pay nothing.
type tracer struct {
	clk   *wallClock
	mu    sync.Mutex
	spans []span
	next  atomic.Int64
	phase atomic.Int64 // ID of the open phase span
}

func newTracer(clk *wallClock) *tracer { return &tracer{clk: clk} }

// begin opens a span under the current phase and returns its ID and start.
func (t *tracer) begin() (int64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.next.Add(1), t.clk.now()
}

// end records a span opened by begin.
func (t *tracer) end(id, start int64, name string) {
	if t == nil {
		return
	}
	t.add(span{ID: id, Parent: t.phase.Load(), Name: name, Start: start, End: t.clk.now()})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// startPhase opens a phase span that later spans attach to; the returned
// function closes it.
func (t *tracer) startPhase(name string) func() {
	if t == nil {
		return func() {}
	}
	id, start := t.begin()
	prev := t.phase.Swap(id)
	return func() {
		t.add(span{ID: id, Parent: prev, Name: name, Start: start, End: t.clk.now()})
		t.phase.Store(prev)
	}
}

// durations returns the durations (ns) of spans named name under the phase
// span named phase ("" for any phase).
func (t *tracer) durations(name, phase string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	phases := map[int64]bool{}
	for _, s := range t.spans {
		if s.Name == phase {
			phases[s.ID] = true
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (phase == "" || phases[s.Parent]) {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSink records a span for every sampleEvery-th delivery: from the due
// time of the freshest contributing tuple to the sink.
type tracedSink struct {
	inner core.Sink
	tr    *tracer
	n     atomic.Uint64
}

const sinkSpanEvery = 256

func (s *tracedSink) OnResult(r core.Result) {
	s.inner.OnResult(r)
	if s.n.Add(1)%sinkSpanEvery == 0 && r.IngestNanos > 0 {
		s.tr.add(span{ID: s.tr.next.Add(1), Parent: s.tr.phase.Load(), Name: "sink.deliver", Start: r.IngestNanos, End: s.tr.clk.now()})
	}
}

// heapSampler tracks the peak of live heap objects, read from runtime
// metrics every interval until stopped.
type heapSampler struct {
	peak float64 // bytes
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := float64(sample[0].Value.Uint64()); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return h.peak / (1 << 20)
}

func traceFile(root, workload string, seed int64) string {
	return fmt.Sprintf("%s/trace-%s-%d.jsonl", root, workload, seed)
}
