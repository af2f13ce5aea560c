package crane

import (
	"sync/atomic"
	"testing"
	"time"

	"crane/internal/dmt"
	"crane/internal/papi"
	"crane/internal/seq"
	"crane/internal/simnet"
)

// startBlockedOp starts a program whose first synchronization operation
// blocks in the gate's empty-sequence wait. W_timeout is an hour, so the
// wait's timer never fires within a test: whatever ends the wait is the
// event under test.
func startBlockedOp(t *testing.T) (*gateHarness, *gate, *atomic.Int64) {
	t.Helper()
	h := newGateHarness(t, true)
	h.r.cfg.Wtimeout = time.Hour
	var ops atomic.Int64
	h.proc.Start(papi.FuncInstance{Main: func(tt papi.T) {
		m := tt.NewMutex()
		m.Lock(tt)
		ops.Add(1)
		m.Unlock(tt)
	}})
	time.Sleep(20 * time.Millisecond)
	if ops.Load() != 0 {
		t.Fatal("operation proceeded on an empty sequence")
	}
	return h, h.g, &ops
}

// TestGateEmptyWaitWakesOnEnqueue: a committed entry is admitted as soon
// as it is enqueued, not on a timer, and the wait is recorded.
func TestGateEmptyWaitWakesOnEnqueue(t *testing.T) {
	h, _, ops := startBlockedOp(t)
	h.inject(&seq.Entry{Index: 1, Kind: seq.KindBubble, NClock: 50})
	waitFor(t, 5*time.Second, "the enqueue to wake the gate", func() bool { return ops.Load() == 1 })
	if n := h.r.ro.emptyWait.Count(); n == 0 {
		t.Fatal("seq_empty_wait_seconds recorded no wait")
	}
}

// TestGateEmptyWaitWakesOnKill: killing the scheduler unwinds a token
// holder waiting on an empty sequence.
func TestGateEmptyWaitWakesOnKill(t *testing.T) {
	h, _, ops := startBlockedOp(t)
	h.r.killedFlag.Store(true)
	h.proc.Kill()
	done := make(chan struct{})
	go func() {
		h.proc.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("kill did not unwind the empty-sequence wait")
	}
	if ops.Load() != 0 {
		t.Fatal("killed operation ran")
	}
}

// TestGateEmptyWaitWakesOnRetire: retiring the gate (speculation rollback)
// releases its waiters even though the replica lives on.
func TestGateEmptyWaitWakesOnRetire(t *testing.T) {
	_, g, ops := startBlockedOp(t)
	g.retire()
	g.retire() // idempotent
	waitFor(t, 5*time.Second, "retirement to release the wait", func() bool { return ops.Load() == 1 })
}

// TestGateWithholdsUnbootedLane: with chewing in place, a lane whose first
// application thread has not been admitted still consumes nothing — its
// bubbles wait for the boot — and after the boot its idle thread drains
// them.
func TestGateWithholdsUnbootedLane(t *testing.T) {
	cfg := testConfig(ModeCrane)
	cfg.Lanes = 2
	prog := papi.Program{Name: "h", Ports: []int{1}, Conflict: &papi.ConflictMap{}}
	r := newReplica(0, &cfg, prog, simnet.New(simnet.Options{}))
	if r.lanes != 2 {
		t.Fatalf("replica runs %d lanes, want 2", r.lanes)
	}
	proc := papi.NewParrotProc(r.net, r.host, r.fs)
	proc.SetLanes(2)
	proc.SetSocketLayer(&dmtSockets{r: r})
	proc.Sched.SetGate(newGate(r, true))
	r.pprocA.Store(proc)
	t.Cleanup(func() {
		r.killedFlag.Store(true)
		proc.Kill()
		proc.Wait()
	})
	for i := uint64(1); i <= 4; i++ {
		r.laneSeq(0).Enqueue(&seq.Entry{Index: i, Kind: seq.KindBubble, NClock: 500})
		r.laneSeq(1).Enqueue(&seq.Entry{Index: i, Kind: seq.KindBubble, NClock: 500})
	}
	var lane0Ops atomic.Int64
	proc.Start(papi.FuncInstance{Main: func(tt papi.T) {
		m := tt.NewMutexLane(0)
		for i := 0; i < 20; i++ {
			m.Lock(tt)
			m.Unlock(tt)
			lane0Ops.Add(1)
		}
	}})
	waitFor(t, 5*time.Second, "lane 0 to drain its bubbles", func() bool {
		return lane0Ops.Load() == 20 && r.laneSeq(0).Empty()
	})
	time.Sleep(20 * time.Millisecond) // lane 1's idle thread keeps rotating
	if got := r.laneSeq(1).Progress(); got != 0 {
		t.Fatalf("unbooted lane 1 consumed %d clocks", got)
	}
	if got := r.laneSeq(1).Len(); got != 4 {
		t.Fatalf("unbooted lane 1 holds %d bubbles, want 4", got)
	}
	proc.Sched.SpawnLane(nil, 1, "lane1-main", func(th *dmt.Thread) {
		var m dmt.Mutex
		m.BindLane(1)
		th.Lock(&m)
		th.Unlock(&m)
	})
	waitFor(t, 5*time.Second, "booted lane 1 to drain its bubbles", func() bool { return r.laneSeq(1).Empty() })
	if got := r.laneSeq(1).Progress(); got != 2000 {
		t.Fatalf("lane 1 consumed %d clocks, want 2000", got)
	}
}

// TestGateDiscardWaitsForNextEntry: when discarding a server-closed
// connection's entry drains the sequence, the admitted operation waits
// for the next entry instead of running on an empty sequence — whether
// that entry had arrived yet would otherwise decide the operation's
// outcome by physical timing.
func TestGateDiscardWaitsForNextEntry(t *testing.T) {
	cfg := testConfig(ModeCrane)
	cfg.Wtimeout = time.Hour
	r := newReplica(0, &cfg, papi.Program{Name: "h", Ports: []int{1}}, simnet.New(simnet.Options{}))
	g := newGate(r, true)
	r.markConnClosed(5)
	r.sq.Enqueue(&seq.Entry{Index: 1, Kind: seq.KindClose, Conn: 5})
	// A gateless scheduler supplies the token-holding thread that runs
	// the gate, so no idle thread of a gated scheduler can do the discard.
	s := dmt.New()
	s.Start()
	defer func() {
		s.Kill()
		s.Join()
	}()
	admitted := make(chan seq.Entry, 1)
	s.Spawn(nil, "op", func(th *dmt.Thread) {
		th.GetTurn()
		g.CheckAdmit(th)
		h, _ := r.sq.Head()
		admitted <- h
		th.PutTurn()
	})
	select {
	case h := <-admitted:
		t.Fatalf("operation admitted with head %v after the discard drained the sequence", h.Kind)
	case <-time.After(20 * time.Millisecond):
	}
	r.sq.Enqueue(&seq.Entry{Index: 2, Kind: seq.KindConnect, Conn: 6, Port: 1})
	select {
	case h := <-admitted:
		if h.Kind != seq.KindConnect || h.Conn != 6 {
			t.Fatalf("admitted with head %v conn %d, want CONNECT 6", h.Kind, h.Conn)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("operation never admitted after the next entry arrived")
	}
}
