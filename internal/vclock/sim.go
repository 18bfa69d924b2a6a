package vclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Sim is a deterministic simulated clock with a cooperative task
// scheduler.
//
// Time advances only when every tracked task is blocked (in Sleep, After,
// or a Cond wait): the last task to block advances the clock to the next
// pending timer and wakes its owner. CPU work performed between blocking
// points is therefore instantaneous in simulated time; components model
// real CPU cost by sleeping for it (see speaker.CPUModel).
//
// Sim also counts "context switches" — task wakeups dispatched by the
// scheduler — which stand in for the vmstat context-switch rate the paper
// reports in Figure 5.
//
// Time holds still for the goroutine that created the Sim until it lets
// go, with WaitIdle or Start: until then it counts as a runnable task, so
// a task it spawns cannot block, find nobody else runnable and jump the
// clock to its timeout before the creator has spawned the task it waits
// for.
type Sim struct {
	mu       sync.Mutex
	now      time.Time
	timers   timerHeap
	seq      int64
	held     bool  // the creator still counts as runnable (see Start)
	runnable int   // tasks currently executing (not blocked in this clock)
	tasks    int   // live tasks
	switches int64 // cumulative task wakeups
	spawns   int64 // cumulative task spawns
	strict   bool  // panic when all tasks block with no pending timers
	done     *sync.Cond
}

// SetStrict enables deadlock detection: if every tracked task is blocked
// and no timers are pending, Sim panics instead of parking. Enable it in
// closed-system tests; leave it off when untracked goroutines (such as a
// test's main goroutine) may still signal a Cond or add tasks.
func (s *Sim) SetStrict(v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.strict = v
}

// NewSim returns a simulated clock starting at the given time. A zero
// start time yields a fixed, arbitrary epoch so tests are reproducible.
func NewSim(start time.Time) *Sim {
	if start.IsZero() {
		start = time.Date(2005, time.April, 10, 12, 0, 0, 0, time.UTC)
	}
	s := &Sim{now: start, held: true, runnable: 1}
	s.done = sync.NewCond(&s.mu)
	return s
}

// Start lets simulated time run: the creator stops counting as a
// runnable task. WaitIdle does this itself; a creator that first waits on
// something else (a channel its tasks close, a recover from a strict-mode
// panic) calls Start before it does. Later calls do nothing.
func (s *Sim) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.startLocked()
}

func (s *Sim) startLocked() {
	if !s.held {
		return
	}
	s.held = false
	s.runnable--
	s.advanceWhileIdleLocked()
}

var _ Clock = (*Sim)(nil)

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Since implements Clock.
func (s *Sim) Since(t time.Time) time.Duration {
	return s.Now().Sub(t)
}

// Switches returns the cumulative number of context switches (task
// wakeups) dispatched by the scheduler.
func (s *Sim) Switches() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.switches
}

// Tasks returns the number of live tasks.
func (s *Sim) Tasks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tasks
}

// Go implements Clock. The spawned task must perform all blocking through
// this clock (Sleep, After, or a Cond from NewCond); blocking elsewhere
// stalls simulated time for everyone.
func (s *Sim) Go(name string, fn func()) {
	s.mu.Lock()
	s.tasks++
	s.runnable++
	s.spawns++
	s.switches++
	s.mu.Unlock()
	go func() {
		defer func() {
			s.mu.Lock()
			s.tasks--
			s.runnable--
			if s.tasks == 0 {
				s.done.Broadcast()
			}
			s.advanceWhileIdleLocked()
			s.mu.Unlock()
		}()
		fn()
	}()
}

// AfterFunc implements Clock: fn runs as a tracked task once d elapses.
// The timer is armed here, synchronously, so same-deadline callbacks
// fire in AfterFunc call order — the property the simulated LAN uses to
// keep per-receiver delivery FIFO.
func (s *Sim) AfterFunc(d time.Duration, name string, fn func()) {
	s.mu.Lock()
	s.tasks++
	s.newTimerLocked(d, func() {
		// Runs under s.mu; the scheduler has already accounted the
		// wakeup (runnable++). Hand the body to its own goroutine.
		go func() {
			defer func() {
				s.mu.Lock()
				s.tasks--
				s.runnable--
				if s.tasks == 0 {
					s.done.Broadcast()
				}
				s.advanceWhileIdleLocked()
				s.mu.Unlock()
			}()
			fn()
		}()
	})
	s.mu.Unlock()
}

// WaitIdle blocks the caller (which must NOT be a tracked task) until all
// tracked tasks have finished, starting the clock first (see Start).
func (s *Sim) WaitIdle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.startLocked()
	for s.tasks > 0 {
		s.done.Wait()
	}
}

// Sleep implements Clock.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	t := s.newTimerLocked(d, nil)
	s.blockLocked()
	s.mu.Unlock()
	<-t.ch
}

// After implements Clock. The returned channel must be received from
// promptly: the calling task is considered blocked from the moment After
// returns until the timer fires.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	s.mu.Lock()
	t := s.newTimerLocked(d, nil)
	s.blockLocked()
	s.mu.Unlock()
	return t.ch
}

// NewCond implements Clock.
func (s *Sim) NewCond() Cond { return &simCond{s: s} }

// simTimer is a pending timer in the heap. Exactly one of ch / onFire is
// used: Sleep and After receive on ch; Cond timeouts run onFire under the
// scheduler lock.
type simTimer struct {
	when      time.Time
	seq       int64
	ch        chan time.Time
	onFire    func()
	cancelled bool
}

func (s *Sim) newTimerLocked(d time.Duration, onFire func()) *simTimer {
	s.seq++
	t := &simTimer{when: s.now.Add(d), seq: s.seq, onFire: onFire}
	if onFire == nil {
		t.ch = make(chan time.Time, 1)
	}
	heap.Push(&s.timers, t)
	return t
}

// blockLocked marks the calling task blocked and, if it was the last
// runnable task, advances simulated time.
func (s *Sim) blockLocked() {
	s.runnable--
	s.advanceWhileIdleLocked()
}

// wakeLocked marks one task runnable and accounts the context switch.
func (s *Sim) wakeLocked() {
	s.runnable++
	s.switches++
}

// advanceWhileIdleLocked fires due timers while no task is runnable. If
// the heap empties while tasks remain blocked, the system either waits
// for an untracked goroutine to intervene (default) or panics (strict
// mode), because simulated time can no longer advance on its own.
func (s *Sim) advanceWhileIdleLocked() {
	for s.runnable == 0 && s.tasks > 0 {
		t := s.popTimerLocked()
		if t == nil {
			if s.strict {
				panic(fmt.Sprintf(
					"vclock: deadlock: %d tasks all blocked at %s with no pending timers",
					s.tasks, s.now.Format(time.RFC3339Nano)))
			}
			return
		}
		if t.when.After(s.now) {
			s.now = t.when
		}
		s.fireLocked(t)
	}
}

// popTimerLocked removes and returns the earliest non-cancelled timer, or
// nil if none remain.
func (s *Sim) popTimerLocked() *simTimer {
	for s.timers.Len() > 0 {
		t := heap.Pop(&s.timers).(*simTimer)
		if !t.cancelled {
			return t
		}
	}
	return nil
}

func (s *Sim) fireLocked(t *simTimer) {
	s.wakeLocked()
	if t.onFire != nil {
		t.onFire()
		return
	}
	t.ch <- s.now
}

// timerHeap orders timers by (when, seq): ties fire in creation order so
// runs are reproducible.
type timerHeap []*simTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*simTimer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// simCond is the Cond implementation for Sim.
type simCond struct {
	s       *Sim
	waiters []*simWaiter
}

type simWaiter struct {
	ch       chan struct{}
	signaled bool
	timedOut bool
	timer    *simTimer
}

func (c *simCond) Wait(l sync.Locker) {
	w := &simWaiter{ch: make(chan struct{}, 1)}
	c.s.mu.Lock()
	c.waiters = append(c.waiters, w)
	c.s.blockLocked()
	c.s.mu.Unlock()
	l.Unlock()
	<-w.ch
	l.Lock()
}

func (c *simCond) WaitTimeout(l sync.Locker, d time.Duration) bool {
	w := &simWaiter{ch: make(chan struct{}, 1)}
	c.s.mu.Lock()
	w.timer = c.s.newTimerLocked(d, func() {
		// Runs under s.mu when the timeout fires. The scheduler has
		// already accounted the wakeup.
		if w.signaled {
			return
		}
		w.timedOut = true
		c.removeLocked(w)
		w.ch <- struct{}{}
	})
	c.waiters = append(c.waiters, w)
	c.s.blockLocked()
	c.s.mu.Unlock()
	l.Unlock()
	<-w.ch
	l.Lock()
	return !w.timedOut
}

// removeLocked drops w from the waiter list. Caller holds s.mu.
func (c *simCond) removeLocked(w *simWaiter) {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

func (c *simCond) Signal() {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	c.signalLocked()
}

func (c *simCond) signalLocked() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	w.signaled = true
	if w.timer != nil {
		w.timer.cancelled = true
	}
	c.s.wakeLocked()
	w.ch <- struct{}{}
}

func (c *simCond) Broadcast() {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	for len(c.waiters) > 0 {
		c.signalLocked()
	}
}
