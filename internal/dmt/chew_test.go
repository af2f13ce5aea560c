package dmt

import (
	"sync/atomic"
	"testing"
	"time"

	"crane/internal/obs"
)

// bubbleGate is a minimal bubbling gate: every admitted operation consumes
// one clock from a fixed list of bubbles, the idle thread may chew through
// a bubble while alone, and once the bubbles run out every token holder
// blocks (as CRANE's gate does on an empty sequence) until the scheduler is
// killed. Its state is touched only by token holders.
type bubbleGate struct {
	chew    bool
	release chan struct{} // closed once the program's threads are queued
	bubbles []uint64
	blocked atomic.Bool // set when the bubbles are exhausted
}

func (g *bubbleGate) CheckAdmit(t *Thread) {
	select {
	case <-g.release:
	case <-t.KillCh():
		return
	}
	if len(g.bubbles) == 0 {
		g.blocked.Store(true)
		<-t.KillCh()
		return
	}
	if max := t.IdleChewLimit(); g.chew && max > 0 {
		k := g.bubbles[0] - 1
		if max < k {
			k = max
		}
		g.bubbles[0] -= k
		t.ChewIdle(k)
	}
	if g.bubbles[0]--; g.bubbles[0] == 0 {
		g.bubbles = g.bubbles[1:]
	}
}

// BusyLane implements LaneBusyGate: the gate paces the idle thread.
func (g *bubbleGate) BusyLane(int) bool { return true }

type chewRun struct {
	sum, clock, chewed uint64
	released           []uint64 // lane clock right after each barrier release
}

// runChew runs two workers that meet at a soft barrier for three (so only
// its tick timeout releases them) while main waits to join them: the idle
// thread is then alone with a bubble whose middle holds the deadline.
func runChew(t *testing.T, chew bool) chewRun {
	t.Helper()
	s := New()
	reg := obs.NewRegistry()
	g := &bubbleGate{chew: chew, release: make(chan struct{}), bubbles: []uint64{40, 1000, 1000, 500}}
	s.SetGate(g)
	s.SetObs(reg)
	s.Start()
	sb := NewSoftBarrier(3, 300)
	var res chewRun
	released := make([]uint64, 2)
	worker := func(i int) func(*Thread) {
		return func(th *Thread) {
			var m Mutex
			th.Lock(&m)
			th.Unlock(&m)
			th.SoftBarrierArrive(sb)
			released[i] = th.LaneClock()
			th.Lock(&m)
			th.Unlock(&m)
		}
	}
	s.Spawn(nil, "main", func(th *Thread) {
		a := s.Spawn(th, "w0", worker(0))
		b := s.Spawn(th, "w1", worker(1))
		th.Join(a)
		th.Join(b)
	})
	close(g.release)
	deadline := time.Now().Add(10 * time.Second)
	for !g.blocked.Load() {
		if time.Now().After(deadline) {
			t.Fatal("bubbles never exhausted")
		}
		time.Sleep(100 * time.Microsecond)
	}
	st := s.Stats()
	s.Kill()
	s.Join()
	res.sum, res.clock = st.ScheduleSum, st.Clock
	res.released = released
	res.chewed = reg.Counter("dmt_idle_chew_clocks_total", "").Value()
	return res
}

// TestChewIdleIsUnobservable: fast-forwarding the idle thread through
// bubbles gives the same schedule hash, the same final clock, and the same
// soft-barrier release clocks as ticking the bubbles one rotation at a
// time — including when the barrier deadline falls mid-bubble.
func TestChewIdleIsUnobservable(t *testing.T) {
	off := runChew(t, false)
	on := runChew(t, true)
	if off.chewed != 0 {
		t.Fatalf("chewed %d clocks with chewing off", off.chewed)
	}
	if on.chewed == 0 {
		t.Fatal("no clocks chewed with chewing on")
	}
	if on.sum != off.sum {
		t.Fatalf("ScheduleSum %#x with chewing, %#x without", on.sum, off.sum)
	}
	if on.clock != off.clock {
		t.Fatalf("final clock %d with chewing, %d without", on.clock, off.clock)
	}
	for i := range off.released {
		if on.released[i] != off.released[i] {
			t.Fatalf("worker %d released at clock %d with chewing, %d without",
				i, on.released[i], off.released[i])
		}
	}
}

// limitGate records the chew limit the idle thread is granted while an
// application thread is runnable.
type limitGate struct {
	appRunning atomic.Bool
	granted    atomic.Uint64 // largest limit granted while appRunning
	checked    atomic.Int64
}

func (g *limitGate) CheckAdmit(t *Thread) {
	if t.IsIdle() && g.appRunning.Load() {
		if max := t.IdleChewLimit(); max > g.granted.Load() {
			g.granted.Store(max)
		}
		g.checked.Add(1)
	}
}

// TestIdleChewLimitStaysZeroWithCompany: no chew is granted to an
// application thread, nor to an idle thread sharing the run queue.
func TestIdleChewLimitStaysZeroWithCompany(t *testing.T) {
	s := New()
	g := &limitGate{}
	s.SetGate(g)
	s.Start()
	appLimit := make(chan uint64, 1)
	s.Spawn(nil, "app", func(th *Thread) {
		g.appRunning.Store(true)
		var m Mutex
		for i := 0; i < 200; i++ {
			th.Lock(&m)
			th.Unlock(&m)
		}
		th.GetTurn()
		appLimit <- th.IdleChewLimit()
		th.PutTurn()
		g.appRunning.Store(false)
	})
	if got := <-appLimit; got != 0 {
		t.Fatalf("application thread granted a chew limit of %d", got)
	}
	s.Kill()
	s.Join()
	if g.checked.Load() == 0 {
		t.Fatal("idle thread never admitted alongside the application thread")
	}
	if got := g.granted.Load(); got != 0 {
		t.Fatalf("idle thread granted a chew limit of %d with company", got)
	}
}
