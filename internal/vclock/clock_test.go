package vclock

import (
	"sync"
	"testing"
	"time"
)

// queued reports how many waiters c holds.
func queued(c *realCond) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// waitQueued polls until c holds n waiters.
func waitQueued(t *testing.T, c *realCond, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); queued(c) != n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("cond holds %d waiters, want %d", queued(c), n)
		}
	}
}

// emptyFree checks that every channel on c's free list is empty: a
// recycled channel holding a stale signal would wake its next waiter
// with nobody having signaled.
func emptyFree(t *testing.T, c *realCond) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, ch := range c.free {
		if len(ch) != 0 {
			t.Fatalf("free channel %d of %d holds a signal", i, len(c.free))
		}
	}
}

// TestRealCondSignalFIFO: Signal wakes the waiters one at a time, in the
// order they began to wait.
func TestRealCondSignalFIFO(t *testing.T) {
	c := System.NewCond().(*realCond)
	var mu sync.Mutex
	woke := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func() {
			mu.Lock()
			c.Wait(&mu)
			mu.Unlock()
			woke <- i
		}()
		waitQueued(t, c, i+1)
	}
	for want := 0; want < 3; want++ {
		mu.Lock()
		c.Signal()
		mu.Unlock()
		if got := <-woke; got != want {
			t.Fatalf("signal %d woke waiter %d, want %d", want, got, want)
		}
	}
	waitQueued(t, c, 0)
	c.Signal() // nobody waits: a no-op
	emptyFree(t, c)
}

// TestRealCondBroadcastRecycles: Broadcast wakes every waiter, and the next
// waiters reuse their channels without a stale wake-up.
func TestRealCondBroadcastRecycles(t *testing.T) {
	c := System.NewCond().(*realCond)
	var mu sync.Mutex
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mu.Lock()
				c.Wait(&mu)
				mu.Unlock()
			}()
		}
		waitQueued(t, c, 4)
		mu.Lock()
		c.Broadcast()
		mu.Unlock()
		wg.Wait()
		waitQueued(t, c, 0)
		emptyFree(t, c)
	}
	mu.Lock()
	if c.WaitTimeout(&mu, 10*time.Millisecond) {
		t.Error("a wait after the broadcasts was woken with nobody signaling")
	}
	mu.Unlock()
}

// TestRealCondWaitTimeoutRace: a Signal timed to land on the waiter's
// timeout is either taken (WaitTimeout reports true) or finds nobody;
// either way the waiter's channel goes back to the free list empty, so
// no later wait is woken by it.
func TestRealCondWaitTimeoutRace(t *testing.T) {
	c := System.NewCond().(*realCond)
	var mu sync.Mutex
	woken := 0
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		d := time.Duration(i%50) * time.Microsecond
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(d)
			mu.Lock()
			c.Signal()
			mu.Unlock()
		}()
		mu.Lock()
		if c.WaitTimeout(&mu, d) {
			woken++
		}
		mu.Unlock()
		<-done
		if n := queued(c); n != 0 {
			t.Fatalf("round %d: %d waiters left queued", i, n)
		}
	}
	emptyFree(t, c)
	mu.Lock()
	if c.WaitTimeout(&mu, 10*time.Millisecond) {
		t.Error("a wait after the races was woken with nobody signaling")
	}
	mu.Unlock()
	t.Logf("%d of %d waits taken by the signal, the rest timed out", woken, rounds)
}

// TestRealCondRoundTripAllocatesNothing: once the cond has had its
// waiter, a Signal/Wait round trip reuses the waiter's channel.
func TestRealCondRoundTripAllocatesNothing(t *testing.T) {
	c := System.NewCond()
	var mu sync.Mutex
	ready, stop := false, false
	done := make(chan struct{})
	go func() {
		mu.Lock()
		defer mu.Unlock()
		for !stop {
			for !ready && !stop {
				c.Wait(&mu)
			}
			ready = false
			done <- struct{}{}
		}
	}()
	roundTrip := func() {
		mu.Lock()
		ready = true
		c.Signal()
		mu.Unlock()
		<-done
	}
	roundTrip()
	if n := testing.AllocsPerRun(1000, roundTrip); n != 0 {
		t.Errorf("a Signal/Wait round trip allocates %v times, want 0", n)
	}
	mu.Lock()
	stop = true
	c.Signal()
	mu.Unlock()
	<-done
}
