package vclock

import (
	"slices"
	"sync"
	"time"
)

// Clock abstracts time for all components of the system.
//
// Tasks that may block must be spawned with Go so that a simulated clock
// can track them; blocking waits on shared state must use a Cond obtained
// from NewCond for the same reason.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep pauses the calling task for d. Non-positive d returns
	// immediately.
	Sleep(d time.Duration)
	// After returns a channel that receives the then-current time once d
	// has elapsed. The caller must only receive from the channel from a
	// task spawned via Go (on a simulated clock the receive is tracked as
	// a blocking point).
	After(d time.Duration) <-chan time.Time
	// Go runs fn as a tracked task. On the real clock this is a plain
	// goroutine; on a simulated clock the task participates in the
	// cooperative scheduler. name is used in diagnostics.
	Go(name string, fn func())
	// AfterFunc runs fn as a tracked task once d has elapsed. Unlike
	// Go-then-Sleep, the timer is armed synchronously in the caller:
	// same-deadline AfterFunc callbacks run in call order, which the
	// network simulation relies on for FIFO delivery.
	AfterFunc(d time.Duration, name string, fn func())
	// NewCond returns a condition variable bound to this clock.
	NewCond() Cond
	// Since is shorthand for Now().Sub(t).
	Since(t time.Time) time.Duration
}

// Cond is a clock-aware condition variable. Unlike sync.Cond it supports
// timed waits, and on a simulated clock it informs the scheduler that the
// waiting task is blocked.
//
// The locker passed to Wait/WaitTimeout must be held by the caller; it is
// released while waiting and re-acquired before returning. Signal and
// Broadcast should be called with the locker held to avoid missed
// wakeups, matching sync.Cond usage.
type Cond interface {
	// Wait blocks until Signal or Broadcast wakes this waiter.
	Wait(l sync.Locker)
	// WaitTimeout blocks until woken or until d elapses. It reports true
	// if the waiter was woken by Signal/Broadcast and false on timeout.
	WaitTimeout(l sync.Locker, d time.Duration) bool
	// Signal wakes one waiter, if any.
	Signal()
	// Broadcast wakes all current waiters.
	Broadcast()
}

// Real is a Clock backed by the system clock. The zero value is ready to
// use.
type Real struct{}

// System is the shared real-time clock.
var System Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Go implements Clock.
func (Real) Go(name string, fn func()) { go fn() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, name string, fn func()) {
	if d <= 0 {
		go fn()
		return
	}
	time.AfterFunc(d, fn)
}

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// NewCond implements Clock.
func (Real) NewCond() Cond { return &realCond{} }

// realCond implements Cond over channels so that timed waits compose with
// the real clock. A waiter parks on a one-slot channel of its own, and
// the channels are recycled through free: a channel is empty again once
// its waiter has received the signal, or has timed out and been removed
// before any signal, or has drained the signal that raced its timeout.
// A Signal/Wait round trip therefore allocates nothing once the cond
// has had as many waiters at once as it ever will.
type realCond struct {
	mu      sync.Mutex
	waiters []chan struct{} // FIFO: Signal wakes the first
	free    []chan struct{} // empty channels for the next waiters
}

func (c *realCond) enqueue() chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ch chan struct{}
	if n := len(c.free); n > 0 {
		ch, c.free = c.free[n-1], c.free[:n-1]
	} else {
		ch = make(chan struct{}, 1)
	}
	c.waiters = append(c.waiters, ch)
	return ch
}

// recycle returns a waiter's channel, empty, to the free list.
func (c *realCond) recycle(ch chan struct{}) {
	c.mu.Lock()
	c.free = append(c.free, ch)
	c.mu.Unlock()
}

// remove drops ch from the waiter list if it is still queued. It reports
// whether the channel had already been signaled.
func (c *realCond) remove(ch chan struct{}) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := slices.Index(c.waiters, ch); i >= 0 {
		c.waiters = slices.Delete(c.waiters, i, i+1)
		return false
	}
	// Not found: a Signal/Broadcast already claimed it.
	return true
}

func (c *realCond) Wait(l sync.Locker) {
	ch := c.enqueue()
	l.Unlock()
	<-ch
	c.recycle(ch)
	l.Lock()
}

func (c *realCond) WaitTimeout(l sync.Locker, d time.Duration) bool {
	ch := c.enqueue()
	l.Unlock()
	defer l.Lock()
	defer c.recycle(ch)
	select {
	case <-ch:
		return true
	case <-time.After(d):
		if c.remove(ch) {
			// Signal raced with the timeout and won; honour it.
			<-ch
			return true
		}
		return false
	}
}

func (c *realCond) Signal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.waiters) == 0 {
		return
	}
	c.waiters[0] <- struct{}{}
	c.waiters = slices.Delete(c.waiters, 0, 1)
}

func (c *realCond) Broadcast() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range c.waiters {
		ch <- struct{}{}
	}
	c.waiters = slices.Delete(c.waiters, 0, len(c.waiters))
}
