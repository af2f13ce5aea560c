// Package crane assembles the full system of the paper: per-replica
// proxies, the Paxos consensus component, the DMT scheduler with the CRANE
// admission gate, time bubbling, checkpointing, and recovery — behind a
// Cluster API that transparently replicates a papi.Program.
package crane

import (
	"sync"
	"sync/atomic"
	"time"

	"crane/internal/dmt"
	"crane/internal/seq"
)

// acceptKey is the wait-queue key for threads blocked in accept()/poll()
// on a port; recvKey for threads blocked in recv() on a connection. Both
// implement dmt.Keyer so socket waits stay on the scheduler's
// allocation-free wait-queue path; the high bits namespace the two value
// spaces (ports are small ints, connection ids are a network-wide counter
// that never approaches 2^62).
type acceptKey struct{ port int }
type recvKey struct{ conn uint64 }

// DMTWaitKey implements dmt.Keyer.
func (k acceptKey) DMTWaitKey() uint64 { return 1<<62 | uint64(k.port) }

// DMTWaitKey implements dmt.Keyer.
func (k recvKey) DMTWaitKey() uint64 { return 2<<62 | k.conn }

// gate is check_add_timebubble (paper Fig. 10), invoked by the DMT
// scheduler's token holder at every synchronization operation:
//
//  1. While the Paxos sequence is empty, wait (the server must not tick
//     logical clocks, §4 rule 2), asking the proxy to request a time
//     bubble once the sequence has been empty for W_timeout.
//  2. If the head is a time bubble, consume one logical clock from it —
//     or, when the idle thread holds the token alone, every clock but the
//     last in one step (dmt.Thread.IdleChewLimit and ChewIdle).
//  3. If the head is a client socket call, signal the thread blocked on
//     the matching socket operation, if any.
//
// With bubbling disabled (the paper's §7.2 "plan II"), step 1 is skipped:
// socket calls are admitted at whatever logical time they happen to
// arrive, which is exactly the nondeterminism that makes replicas diverge.
type gate struct {
	r        *Replica
	bubbling bool
	// dead is closed when a speculation rollback retires this gate: the
	// old scheduler's threads waiting on an empty sequence (their
	// speculative entries were just truncated) must unwind so Kill/Wait
	// can complete, even though the replica itself is not being killed.
	dead       chan struct{}
	retireOnce sync.Once
	// timers[L] is lane L's reusable empty-wait timer. Only lane L's token
	// holder waits on it, one at a time.
	timers []*time.Timer
	// booted[L] flips when lane L's first application thread is admitted
	// (nil when single-lane). Until then the lane's sequence is withheld:
	// idle ticks consume nothing, so entries (bubble clones) pile up and
	// the lane's consumption position stays at 0. This is what makes
	// StampLane replica-deterministic — a lane's bootstrap thread is
	// inserted by another lane at a physically-timed moment, and any
	// clocks the idle thread consumed before that moment would shift the
	// stamps of the lane's first operations by a timing-dependent amount.
	// With withholding, consumption starts exactly at the lane's first
	// application op (a point of the deterministic lane schedule) and
	// every consumption after it is serialized by the lane token.
	booted []atomic.Bool
}

// bubbleRetry is how often a token holder still starved after its bubble
// request re-runs the request policy (a lost request re-arms, a backup
// that became primary starts proposing). About the runtime's timer
// granularity: a shorter period would not fire sooner.
const bubbleRetry = time.Millisecond

func newGate(r *Replica, bubbling bool) *gate {
	g := &gate{
		r:        r,
		bubbling: bubbling,
		dead:     make(chan struct{}),
		timers:   make([]*time.Timer, r.lanes),
	}
	if r.lanes > 1 {
		g.booted = make([]atomic.Bool, r.lanes)
	}
	return g
}

// retire marks the gate dead (speculation rollback); idempotent.
func (g *gate) retire() { g.retireOnce.Do(func() { close(g.dead) }) }

func (g *gate) retired() bool {
	select {
	case <-g.dead:
		return true
	default:
		return false
	}
}

// CheckAdmit implements dmt.Gate. Each thread is admitted against its own
// lane's Paxos sequence: lane L's consumption is paced by lane L's
// committed inputs and bubble clones, so the lane's consumption position —
// the cross-lane merge stamp — is replica-deterministic.
func (g *gate) CheckAdmit(t *dmt.Thread) {
	lane := t.LaneID()
	sq := g.r.laneSeq(lane)
	if g.booted != nil && !g.booted[lane].Load() {
		if t.IsIdle() {
			// Withhold the sequence until the lane boots (see the booted
			// field): a pre-boot idle tick must not consume, wait, or
			// signal — the lane has nothing admissible yet.
			return
		}
		g.booted[lane].Store(true)
	}
	if g.bubbling && !g.waitInput(t, sq) {
		return // killed or retired: the wrapper's next scheduler call unwinds
	}
	h, ok := sq.Head()
	if !ok {
		return
	}
	switch h.Kind {
	case seq.KindBubble:
		if max := t.IdleChewLimit(); max > 0 {
			t.ChewIdle(sq.ChewBubble(max))
		}
		sq.TickBubble()
	case seq.KindConnect:
		t.SignalKey(acceptKey{h.Port})
		return
	case seq.KindSend, seq.KindClose:
		if !g.r.connClosed(h.Conn) {
			t.SignalKey(recvKey{h.Conn})
			return
		}
		// The server already closed this connection; its remaining
		// client calls can never be consumed by a recv. Discard so the
		// head does not wedge the sequence.
		sq.PopIfConn(h.Conn)
	}
	// Exhausting a bubble or discarding an entry may have drained the
	// sequence, and the caller's operation must not run on an empty one:
	// whether the next entry has arrived yet is physical timing.
	if g.bubbling {
		g.waitInput(t, sq)
	}
}

// waitInput blocks the token holder while its lane sequence is empty. It
// wakes on the sequence's enqueue signal (a commit is admitted as soon as
// it heads the sequence), on the lane timer when a bubble request falls
// due (W_timeout after the sequence drained, then every bubbleRetry), and
// on scheduler kill or gate retirement. Waiting only delays physical time,
// never logical time, so it is determinism-neutral. It reports false when
// the caller must unwind instead of admitting.
func (g *gate) waitInput(t *dmt.Thread, sq *seq.Sequence) bool {
	var start time.Time
	for {
		drained, empty := sq.DrainedAt()
		if !empty {
			break
		}
		if g.r.killed() || g.retired() {
			return false
		}
		if start.IsZero() {
			start = time.Now()
		}
		d := time.Until(drained.Add(g.r.cfg.Wtimeout))
		if d <= 0 {
			g.r.maybeRequestBubble()
			d = bubbleRetry
		}
		tm := g.timer(t.LaneID(), d)
		select {
		case <-sq.Wake():
		case <-tm.C:
		case <-t.KillCh():
		case <-g.dead:
		}
		if !tm.Stop() {
			// Fired: drop a value nobody received, so the next Reset
			// starts from an empty channel.
			select {
			case <-tm.C:
			default:
			}
		}
	}
	if !start.IsZero() {
		g.r.ro.emptyWait.Since(start)
	}
	return true
}

// timer arms lane's reusable empty-wait timer for d.
func (g *gate) timer(lane int, d time.Duration) *time.Timer {
	tm := g.timers[lane]
	if tm == nil {
		tm = time.NewTimer(d)
		g.timers[lane] = tm
		return tm
	}
	tm.Reset(d)
	return tm
}

// BusyLane implements dmt.LaneBusyGate. With bubbling, a booted lane's
// idle thread never sleeps: CheckAdmit blocks it on the empty sequence
// until input commits, which is what admits a commit the moment it heads
// the sequence. Without bubbling (plan II) the lane is busy while its
// sequence has pending entries, which the idle thread exhausts rapidly
// when every server thread is blocked (§3.1/§4). A pre-boot lane is never
// busy (its sequence is withheld), so its idle thread sleeps instead of
// burning a core on the bubble clones piling up for post-boot consumption.
func (g *gate) BusyLane(lane int) bool {
	if g.booted != nil && !g.booted[lane].Load() {
		return false
	}
	return g.bubbling || !g.r.laneSeq(lane).Empty()
}

// StampLane implements dmt.LaneStampGate: lane L's cross-lane merge stamp
// is its sequence's consumption position (bubble clocks + consumed client
// calls). It is replica-deterministic at every lane operation — nothing is
// consumed before the lane's first application op, and every consumption
// after it is serialized by the lane token — and it keeps advancing while
// a lane is quiescent (its idle thread drains bubble clones), which is
// what lets other lanes' merge waits complete.
func (g *gate) StampLane(lane int) uint64 { return g.r.laneSeq(lane).Progress() }
