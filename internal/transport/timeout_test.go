package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snooze/internal/simkernel"
)

// countingRuntime wraps a Runtime and tracks how many of its timers are still
// armed: scheduled, minus fired, minus cancelled while pending.
type countingRuntime struct {
	simkernel.Runtime
	armed atomic.Int64
}

type countingCanceler struct {
	inner simkernel.Canceler
	rt    *countingRuntime
}

func (c countingCanceler) Cancel() bool {
	if c.inner.Cancel() {
		c.rt.armed.Add(-1)
		return true
	}
	return false
}

func (c *countingRuntime) After(d time.Duration, fn func()) simkernel.Canceler {
	c.armed.Add(1)
	return countingCanceler{inner: c.Runtime.After(d, func() {
		c.armed.Add(-1)
		fn()
	}), rt: c}
}

// A call that settles releases its timeout timer: after N answered calls (and
// one refused at dispatch) nothing is left armed, long before the timeout.
func TestCallReleasesTimeoutWhenSettled(t *testing.T) {
	k := simkernel.New(1)
	rt := &countingRuntime{Runtime: k}
	b := NewBus(rt, Config{Latency: time.Millisecond})
	b.Register("server", func(r *Request) { r.Respond(r.Payload) })
	const n = 100
	replies, unreachable := 0, 0
	for i := 0; i < n; i++ {
		b.Call("client", "server", "echo", i, 90*time.Second, func(_ any, err error) {
			if err == nil {
				replies++
			}
		})
	}
	b.Call("client", "ghost", "echo", nil, 90*time.Second, func(_ any, err error) {
		if errors.Is(err, ErrUnreachable) {
			unreachable++
		}
	})
	k.Run(time.Second)
	if replies != n || unreachable != 1 {
		t.Fatalf("replies %d (want %d), unreachable %d (want 1)", replies, n, unreachable)
	}
	if got := rt.armed.Load(); got != 0 {
		t.Fatalf("%d timers still armed after every call settled, want 0", got)
	}
	if p := k.Pending(); p != 0 {
		t.Fatalf("%d kernel events still queued, want 0", p)
	}
}

// A call nobody answers still gets exactly one ErrTimeout, and its spent
// timer is not counted twice.
func TestCallUnansweredTimesOutOnce(t *testing.T) {
	k := simkernel.New(1)
	rt := &countingRuntime{Runtime: k}
	b := NewBus(rt, Config{Latency: time.Millisecond})
	b.Register("server", func(r *Request) {})
	var errs []error
	b.Call("client", "server", "x", nil, time.Second, func(_ any, err error) { errs = append(errs, err) })
	k.Run(10 * time.Second)
	if len(errs) != 1 || !errors.Is(errs[0], ErrTimeout) {
		t.Fatalf("callbacks %v, want exactly one ErrTimeout", errs)
	}
	if got := rt.armed.Load(); got != 0 {
		t.Fatalf("%d timers still armed, want 0", got)
	}
}

// On the wall clock a reply can race its timeout: the handler answers after
// a delay around the timeout. Every call must settle exactly once and leave
// no timer armed (run under -race to check the handle's locking).
func TestCallReplyRacesTimeoutOnWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	rt := &countingRuntime{Runtime: simkernel.NewWallRuntime()}
	b := NewBus(rt, Config{})
	const n = 200
	var responded sync.WaitGroup
	responded.Add(n)
	b.Register("server", func(r *Request) {
		d := time.Duration(r.Payload.(int)%5) * 500 * time.Microsecond
		time.AfterFunc(d, func() {
			r.Respond(nil)
			responded.Done()
		})
	})
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		settled  = make([]int, n)
		timeouts int
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		b.Call("client", "server", "x", i, time.Millisecond, func(_ any, err error) {
			mu.Lock()
			settled[i]++
			if errors.Is(err, ErrTimeout) {
				timeouts++
			}
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	responded.Wait()
	// A late reply still travels back on its own delivery timer and lands
	// in a settled call; wait for those timers to fire.
	for deadline := time.Now().Add(5 * time.Second); rt.armed.Load() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, c := range settled {
		if c != 1 {
			t.Fatalf("call %d settled %d times, want 1", i, c)
		}
	}
	if timeouts == 0 || timeouts == n {
		t.Logf("no race exercised: %d of %d calls timed out", timeouts, n)
	}
	if got := rt.armed.Load(); got != 0 {
		t.Fatalf("%d timers still armed, want 0", got)
	}
}
