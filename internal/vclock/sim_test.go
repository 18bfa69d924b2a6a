package vclock

import (
	"sync"
	"testing"
	"time"
)

func TestSimSleepAdvancesTime(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	done := make(chan time.Duration, 1)
	s.Go("sleeper", func() {
		s.Sleep(3 * time.Second)
		done <- s.Since(start)
	})
	s.WaitIdle()
	if d := <-done; d != 3*time.Second {
		t.Fatalf("slept %v, want 3s", d)
	}
	if got := s.Since(start); got != 3*time.Second {
		t.Fatalf("clock advanced %v, want 3s", got)
	}
}

func TestSimHoldsTimeForCreator(t *testing.T) {
	// A task that blocks with a timeout before its creator has spawned the
	// task it waits for must not see the clock jump to that timeout: the
	// creator counts as runnable until WaitIdle.
	s := NewSim(time.Time{})
	start := s.Now()
	var mu sync.Mutex
	cond := s.NewCond()
	ready, timedOut := false, false
	s.Go("waiter", func() {
		mu.Lock()
		defer mu.Unlock()
		for !ready {
			if !cond.WaitTimeout(&mu, time.Second) {
				timedOut = true
				return
			}
		}
	})
	time.Sleep(20 * time.Millisecond) // the waiter blocks first
	s.Go("signaller", func() {
		mu.Lock()
		ready = true
		cond.Signal()
		mu.Unlock()
	})
	s.WaitIdle()
	if timedOut {
		t.Fatalf("waiter timed out at +%v before the signaller was spawned", s.Since(start))
	}
	if got := s.Since(start); got != 0 {
		t.Fatalf("clock advanced %v, want 0", got)
	}
}

func TestSimStartReleasesCreator(t *testing.T) {
	// Start lets time run without WaitIdle, and a second Start or a later
	// WaitIdle does not release the creator twice.
	s := NewSim(time.Time{})
	start := s.Now()
	s.Start()
	s.Start()
	done := make(chan struct{})
	s.Go("sleeper", func() {
		s.Sleep(time.Second)
		close(done)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("time did not run after Start")
	}
	s.WaitIdle()
	s.Go("again", func() { s.Sleep(time.Second) })
	s.WaitIdle()
	if got := s.Since(start); got != 2*time.Second {
		t.Fatalf("clock advanced %v, want 2s", got)
	}
}

func TestSimZeroSleepReturnsImmediately(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	s.Go("z", func() {
		s.Sleep(0)
		s.Sleep(-time.Second)
	})
	s.WaitIdle()
	if got := s.Since(start); got != 0 {
		t.Fatalf("clock advanced %v, want 0", got)
	}
}

func TestSimTimerOrdering(t *testing.T) {
	s := NewSim(time.Time{})
	var mu sync.Mutex
	var order []int
	add := func(id int) {
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
	}
	// Spawn in an order different from wake order.
	s.Go("c", func() { s.Sleep(30 * time.Millisecond); add(3) })
	s.Go("a", func() { s.Sleep(10 * time.Millisecond); add(1) })
	s.Go("b", func() { s.Sleep(20 * time.Millisecond); add(2) })
	s.WaitIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wake order = %v, want [1 2 3]", order)
	}
}

func TestSimTiesFireInCreationOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		s := NewSim(time.Time{})
		var mu sync.Mutex
		var order []int
		start := make(chan struct{})
		for i := 0; i < 5; i++ {
			i := i
			s.Go("t", func() {
				<-start // hold all tasks so timers are created in sequence
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		close(start)
		s.WaitIdle()
		_ = order // spawn order of same-deadline timers is creation order;
		// the stronger property is exercised via sequential Sleep below.

		s2 := NewSim(time.Time{})
		var got []int
		s2.Go("seq", func() {
			for i := 0; i < 5; i++ {
				s2.Sleep(time.Millisecond)
				got = append(got, i)
			}
		})
		s2.WaitIdle()
		for i, v := range got {
			if v != i {
				t.Fatalf("sequential sleeps out of order: %v", got)
			}
		}
	}
}

func TestSimNestedTasks(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	var elapsed time.Duration
	s.Go("outer", func() {
		s.Sleep(time.Second)
		s.Go("inner", func() {
			s.Sleep(2 * time.Second)
			elapsed = s.Since(start)
		})
	})
	s.WaitIdle()
	if elapsed != 3*time.Second {
		t.Fatalf("inner finished at %v, want 3s", elapsed)
	}
}

func TestSimCondSignal(t *testing.T) {
	s := NewSim(time.Time{})
	var mu sync.Mutex
	cond := s.NewCond()
	ready := false
	var wokeAt time.Duration
	start := s.Now()
	s.Go("waiter", func() {
		mu.Lock()
		for !ready {
			cond.Wait(&mu)
		}
		mu.Unlock()
		wokeAt = s.Since(start)
	})
	s.Go("signaler", func() {
		s.Sleep(5 * time.Second)
		mu.Lock()
		ready = true
		cond.Signal()
		mu.Unlock()
	})
	s.WaitIdle()
	if wokeAt != 5*time.Second {
		t.Fatalf("waiter woke at %v, want 5s", wokeAt)
	}
}

func TestSimCondWaitTimeout(t *testing.T) {
	s := NewSim(time.Time{})
	var mu sync.Mutex
	cond := s.NewCond()
	var timedOut bool
	var at time.Duration
	start := s.Now()
	s.Go("waiter", func() {
		mu.Lock()
		ok := cond.WaitTimeout(&mu, 2*time.Second)
		mu.Unlock()
		timedOut = !ok
		at = s.Since(start)
	})
	s.WaitIdle()
	if !timedOut {
		t.Fatal("expected timeout")
	}
	if at != 2*time.Second {
		t.Fatalf("timed out at %v, want 2s", at)
	}
}

func TestSimCondSignalBeatsTimeout(t *testing.T) {
	s := NewSim(time.Time{})
	var mu sync.Mutex
	cond := s.NewCond()
	var signaled bool
	s.Go("waiter", func() {
		mu.Lock()
		signaled = cond.WaitTimeout(&mu, 10*time.Second)
		mu.Unlock()
	})
	s.Go("signaler", func() {
		s.Sleep(time.Second)
		mu.Lock()
		cond.Signal()
		mu.Unlock()
	})
	s.WaitIdle()
	if !signaled {
		t.Fatal("waiter should have been signaled, not timed out")
	}
	// The cancelled timeout timer must not advance the clock further.
	if got := s.Since(s.Now()); got != 0 {
		t.Fatalf("unexpected residual time %v", got)
	}
}

func TestSimCondBroadcast(t *testing.T) {
	s := NewSim(time.Time{})
	var mu sync.Mutex
	cond := s.NewCond()
	n := 0
	for i := 0; i < 7; i++ {
		s.Go("w", func() {
			mu.Lock()
			cond.Wait(&mu)
			n++
			mu.Unlock()
		})
	}
	s.Go("b", func() {
		s.Sleep(time.Second)
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	})
	s.WaitIdle()
	if n != 7 {
		t.Fatalf("woke %d waiters, want 7", n)
	}
}

func TestSimAfter(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	var fired time.Time
	s.Go("after", func() {
		fired = <-s.After(42 * time.Millisecond)
	})
	s.WaitIdle()
	if got := fired.Sub(start); got != 42*time.Millisecond {
		t.Fatalf("After fired at +%v, want +42ms", got)
	}
}

func TestSimSwitchesCounted(t *testing.T) {
	s := NewSim(time.Time{})
	before := s.Switches()
	s.Go("t", func() {
		for i := 0; i < 10; i++ {
			s.Sleep(time.Millisecond)
		}
	})
	s.WaitIdle()
	got := s.Switches() - before
	// 1 spawn + 10 timer wakeups.
	if got != 11 {
		t.Fatalf("switches = %d, want 11", got)
	}
}

func TestSimStrictDeadlockPanics(t *testing.T) {
	s := NewSim(time.Time{})
	s.SetStrict(true)
	// The test waits on the task's recover, not on WaitIdle, so it lets
	// the clock run itself; before the task exists, so the deadlock is
	// found by the task that blocks.
	s.Start()
	panicked := make(chan interface{}, 1)
	var mu sync.Mutex
	cond := s.NewCond()
	s.Go("stuck", func() {
		defer func() { panicked <- recover() }()
		mu.Lock()
		cond.Wait(&mu) // nobody will ever signal
		mu.Unlock()
	})
	select {
	case p := <-panicked:
		if p == nil {
			t.Fatal("expected deadlock panic, got clean exit")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock not detected")
	}
}

func TestSimDeterministicReplay(t *testing.T) {
	run := func() (time.Duration, int64) {
		s := NewSim(time.Time{})
		var mu sync.Mutex
		cond := s.NewCond()
		queue := 0
		for i := 0; i < 4; i++ {
			s.Go("producer", func() {
				for j := 0; j < 25; j++ {
					s.Sleep(10 * time.Millisecond)
					mu.Lock()
					queue++
					cond.Signal()
					mu.Unlock()
				}
			})
		}
		consumed := 0
		s.Go("consumer", func() {
			mu.Lock()
			defer mu.Unlock()
			for consumed < 100 {
				for queue == 0 {
					cond.Wait(&mu)
				}
				queue--
				consumed++
			}
		})
		start := s.Now()
		s.WaitIdle()
		return s.Since(start), s.Switches()
	}
	d1, sw1 := run()
	d2, sw2 := run()
	if d1 != d2 || sw1 != sw2 {
		t.Fatalf("replay diverged: (%v,%d) vs (%v,%d)", d1, sw1, d2, sw2)
	}
	if d1 != 250*time.Millisecond {
		t.Fatalf("simulation ended at %v, want 250ms", d1)
	}
}

func TestRealCondSignal(t *testing.T) {
	c := Real{}
	cond := c.NewCond()
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		mu.Lock()
		cond.Wait(&mu)
		mu.Unlock()
		close(done)
	}()
	// Give the waiter time to park, then signal.
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	cond.Signal()
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real cond waiter never woke")
	}
}

func TestRealCondWaitTimeout(t *testing.T) {
	c := Real{}
	cond := c.NewCond()
	var mu sync.Mutex
	mu.Lock()
	ok := cond.WaitTimeout(&mu, 20*time.Millisecond)
	mu.Unlock()
	if ok {
		t.Fatal("expected timeout")
	}
}

func TestRealCondBroadcast(t *testing.T) {
	c := Real{}
	cond := c.NewCond()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			cond.Wait(&mu)
			mu.Unlock()
		}()
	}
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	cond.Broadcast()
	mu.Unlock()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("broadcast did not wake all waiters")
	}
}

func TestSimWaitIdleOnEmptySim(t *testing.T) {
	s := NewSim(time.Time{})
	s.WaitIdle() // must not block with zero tasks
}

func TestSimFixedEpoch(t *testing.T) {
	a := NewSim(time.Time{})
	b := NewSim(time.Time{})
	if !a.Now().Equal(b.Now()) {
		t.Fatal("zero-start sims should share a fixed epoch")
	}
	custom := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	c := NewSim(custom)
	if !c.Now().Equal(custom) {
		t.Fatalf("custom epoch not honoured: %v", c.Now())
	}
}
