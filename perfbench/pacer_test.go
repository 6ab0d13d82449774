package main

import "testing"

// fakeClock advances only when slept on (plus injected stalls); every sleep
// oversleeps by a fixed amount, as real timers do.
type fakeClock struct {
	t         int64
	oversleep int64
	sleeps    int
}

func (c *fakeClock) now() int64 { return c.t }

func (c *fakeClock) sleepUntil(t int64) {
	c.sleeps++
	if t > c.t {
		c.t = t + c.oversleep
	}
}

const ms = int64(1e6)

// After a stall the pacer releases the backlog at once and then returns to
// the original grid: due times never shift, so the long-run rate is the
// offered one.
func TestPacerCatchesUpAfterStall(t *testing.T) {
	clk := &fakeClock{t: 1000 * ms}
	p := newPacer(clk, clk.t, 1000) // one item per ms
	for i := int64(0); i < 10; i++ {
		if due, late := p.next(); due != 1000*ms+i*ms || late != 0 {
			t.Fatalf("item %d: due %d late %d", i, due, late)
		}
	}
	clk.t += 50 * ms // the consumer stalls for 50 intervals
	sleeps := clk.sleeps
	for i := int64(10); i < 60; i++ {
		due, late := p.next()
		if due != 1000*ms+i*ms {
			t.Fatalf("item %d due %d: schedule drifted", i, due)
		}
		if late <= 0 && i < 59 {
			t.Fatalf("item %d: late %d, want the backlog released late", i, late)
		}
	}
	if clk.sleeps != sleeps {
		t.Fatalf("pacer slept %d times during catch-up", clk.sleeps-sleeps)
	}
	for i := int64(60); i < 1000; i++ {
		if due, late := p.next(); due != 1000*ms+i*ms || late != 0 {
			t.Fatalf("item %d after catch-up: due %d late %d", i, due, late)
		}
	}
	if end := clk.t - 1000*ms; end != 999*ms {
		t.Fatalf("1000 items took %d ms, want 999", end/ms)
	}
}

// Oversleeping delays items but not the schedule. A pacer that re-anchors
// on the current time after each sleep would lose the oversleep every step
// and offer only interval/(interval+oversleep) of the rate.
func TestPacerOversleepDoesNotDrift(t *testing.T) {
	clk := &fakeClock{t: 0, oversleep: ms / 4}
	p := newPacer(clk, 0, 1000)
	const n = 4000
	var maxLate int64
	for i := 0; i < n; i++ {
		_, late := p.next()
		if late > maxLate {
			maxLate = late
		}
	}
	if maxLate > ms/4 {
		t.Fatalf("max lateness %d ns exceeds one oversleep", maxLate)
	}
	elapsed := clk.t
	if achieved := float64(n) / (float64(elapsed) / 1e9); achieved < 999 {
		t.Fatalf("achieved %.1f items/s of 1000 offered", achieved)
	}
}
