package main

import "time"

// clock is the time source the pacer reads; tests inject a fake one.
type clock interface {
	// now returns nanoseconds on a monotonic scale.
	now() int64
	// sleepUntil blocks until now() ≥ t (it may return later).
	sleepUntil(t int64)
}

// wallClock is a monotonic nanosecond clock. Its zero point is one second
// before construction, so no reading is ever 0: the engine treats a tuple
// with IngestNanos 0 as unstamped.
type wallClock struct{ base time.Time }

func newWallClock() *wallClock {
	//lint:ignore wallclock the benchmark times the engine from outside; this clock is the one it injects as NowNanos
	return &wallClock{base: time.Now().Add(-time.Second)}
}

func (c *wallClock) now() int64 {
	//lint:ignore wallclock the benchmark times the engine from outside; this clock is the one it injects as NowNanos
	return int64(time.Since(c.base))
}

func (c *wallClock) sleepUntil(t int64) {
	if d := t - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// pacer releases items on an absolute schedule: item i is due at
// start + i·interval. A late caller is not re-anchored to "now", so a stall
// is followed by catch-up at full speed and the long-run rate stays exactly
// the offered one. (Sleeping a fraction of the interval and then resetting
// the reference to the current time loses the oversleep on every step, so
// such a generator under-delivers without reporting it.)
type pacer struct {
	clk      clock
	start    int64
	interval float64 // nanoseconds per item
	released int64
}

func newPacer(clk clock, start int64, perSecond float64) *pacer {
	return &pacer{clk: clk, start: start, interval: 1e9 / perSecond}
}

// dueAt returns the due time of item i.
func (p *pacer) dueAt(i int64) int64 { return p.start + int64(float64(i)*p.interval) }

// next blocks until the next item is due. It returns the item's due time
// and how late it is released (≥ 0): the caller stamps the item with the
// due time, so generator lateness counts toward measured latency.
func (p *pacer) next() (due, late int64) {
	due = p.dueAt(p.released)
	p.released++
	now := p.clk.now()
	if now < due {
		p.clk.sleepUntil(due)
		now = p.clk.now()
	}
	if now > due {
		late = now - due
	}
	return due, late
}
