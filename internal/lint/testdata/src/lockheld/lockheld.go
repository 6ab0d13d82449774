// Package lockheld is a lint fixture: blocking channel operations under a
// held sync.Mutex/RWMutex must be flagged; the release-first shapes and
// guarded selects must not.
package lockheld

import "sync"

type engine struct {
	mu  sync.Mutex
	out chan int
}

func (e *engine) badSend() {
	e.mu.Lock()
	e.out <- 1 // want "channel send while e\.mu is held"
	e.mu.Unlock()
}

func (e *engine) badRecv(in chan int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	<-in // want "blocking channel receive while e\.mu is held"
}

func (e *engine) badSelect(in chan int) {
	e.mu.Lock()
	select { // want "select with no default blocks while e\.mu is held"
	case v := <-in:
		_ = v
	}
	e.mu.Unlock()
}

func (e *engine) badRange(in chan int) {
	e.mu.Lock()
	for range in { // want "range over channel while e\.mu is held"
	}
	e.mu.Unlock()
}

type table struct {
	rw   sync.RWMutex
	sink chan string
}

func (t *table) badReadLocked() {
	t.rw.RLock()
	t.sink <- "x" // want "channel send while t\.rw is held"
	t.rw.RUnlock()
}

func (e *engine) goodReleaseFirst() {
	e.mu.Lock()
	v := len(e.out)
	e.mu.Unlock()
	e.out <- v
}

func (e *engine) goodGuardedSelect(in chan int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case v := <-in:
		_ = v
	default:
	}
}

func (e *engine) goodBranchReleases(in chan int, fast bool) {
	e.mu.Lock()
	if fast {
		e.mu.Unlock()
		<-in
		return
	}
	e.mu.Unlock()
}

// Over-extension regression: every fall-through branch releases, so the
// held region ends at the join and the send is clean.
func (e *engine) goodAllBranchesRelease(fast bool) {
	e.mu.Lock()
	if fast {
		e.mu.Unlock()
	} else {
		e.mu.Unlock()
	}
	e.out <- 1
}

// Under-extension regression: a lock acquired inside a branch may still be
// held at the join (may-held union).
func (e *engine) badBranchAcquires(cond bool) {
	if cond {
		e.mu.Lock()
	}
	e.out <- 1 // want "channel send while e\.mu is held"
	if cond {
		e.mu.Unlock()
	}
}

// A terminated branch contributes nothing to the join: the early-return
// path's unlock must not leak into the fall-through state.
func (e *engine) badTerminatedBranchRelease(fast bool) {
	e.mu.Lock()
	if fast {
		e.mu.Unlock()
		return
	}
	e.out <- 1 // want "channel send while e\.mu is held"
	e.mu.Unlock()
}

// defer mu.Unlock() keeps the lock held past later early-return branches.
func (e *engine) badDeferHoldsThroughBranches(fast bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if fast {
		return
	}
	e.out <- 1 // want "channel send while e\.mu is held"
}

// RWMutex read-lock variant of the early-return shape: both paths release
// before their channel op, so neither send is flagged.
func (t *table) goodDeferEarlyReturn(cond bool) {
	t.rw.RLock()
	if cond {
		t.rw.RUnlock()
		t.sink <- "fast"
		return
	}
	t.rw.RUnlock()
	t.sink <- "slow"
}

// Switch clauses join like if branches: every case releases, and the
// missing default means the pre-switch (held) state also falls through.
func (e *engine) badSwitchNoDefault(k int) {
	e.mu.Lock()
	switch k {
	case 0:
		e.mu.Unlock()
	case 1:
		e.mu.Unlock()
	}
	e.out <- 1 // want "channel send while e\.mu is held"
}

func (e *engine) goodSwitchAllRelease(k int) {
	e.mu.Lock()
	switch k {
	case 0:
		e.mu.Unlock()
	default:
		e.mu.Unlock()
	}
	e.out <- 1
}

// Loops run to a fixpoint: the unlock sits on one branch only, so the
// next iteration's send may start with the lock still held.
func (e *engine) badLockCarriedIntoNextIteration(xs []int) {
	for _, x := range xs {
		e.out <- x // want "channel send while e\.mu is held"
		e.mu.Lock()
		if x > 0 {
			e.mu.Unlock()
		}
	}
}

// break carries its state to the loop exit: the lock taken before the
// break is still held at the send after the loop.
func (e *engine) badBreakHoldsPastLoop(xs []int) {
	for _, x := range xs {
		e.mu.Lock()
		if x < 0 {
			break
		}
		e.mu.Unlock()
	}
	e.out <- 1 // want "channel send while e\.mu is held"
}

// A labelled continue from the inner loop resumes the outer loop with the
// lock it took before the inner one.
func (e *engine) badLabelledContinueHeld(rows [][]int) {
outer:
	for _, row := range rows {
		e.out <- len(row) // want "channel send while e\.mu is held"
		e.mu.Lock()
		for _, x := range row {
			if x < 0 {
				continue outer
			}
		}
		e.mu.Unlock()
	}
}

// The clean control: every iteration unlocks before its send and relocks
// after it, and the lock is released after the loop.
func (e *engine) goodRelockEachIteration(xs []int) {
	e.mu.Lock()
	for _, x := range xs {
		e.mu.Unlock()
		e.out <- x
		e.mu.Lock()
	}
	e.mu.Unlock()
}

// break out of a switch leaves the switch, not the loop: the unlock after
// the switch still runs before the send.
func (e *engine) goodSwitchBreak(xs []int) {
	for _, x := range xs {
		e.mu.Lock()
		switch x {
		case 0:
			break
		}
		e.mu.Unlock()
		e.out <- x
	}
}

// A range over a channel receives at the top of every iteration: the
// continue path carries the lock into the next receive.
func (e *engine) badRangeReceiveCarried(in chan int) {
	for v := range in { // want "range over channel while e\.mu is held"
		e.mu.Lock()
		if v > 0 {
			continue
		}
		e.mu.Unlock()
	}
}
