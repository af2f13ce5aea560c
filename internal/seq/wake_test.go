package seq

import "testing"

// TestWakeSignalsEnqueue: every Enqueue and EnqueueSpec leaves one pending
// wake-up, a burst collapses into one, and a signal posted before the
// consumer blocks is not lost.
func TestWakeSignalsEnqueue(t *testing.T) {
	s := New()
	select {
	case <-s.Wake():
		t.Fatal("wake-up pending on a fresh sequence")
	default:
	}
	s.Enqueue(&Entry{Index: 1, Kind: KindBubble, NClock: 1})
	s.Enqueue(&Entry{Index: 2, Kind: KindConnect, Conn: 1})
	select {
	case <-s.Wake():
	default:
		t.Fatal("Enqueue posted no wake-up")
	}
	select {
	case <-s.Wake():
		t.Fatal("a burst of enqueues posted more than one wake-up")
	default:
	}
	s.EnqueueSpec(&Entry{Index: 3, Kind: KindSend, Conn: 1, Data: []byte("x")})
	select {
	case <-s.Wake():
	default:
		t.Fatal("EnqueueSpec posted no wake-up")
	}
	s.Reset()
	s.Enqueue(&Entry{Index: 1, Kind: KindBubble, NClock: 1})
	select {
	case <-s.Wake():
	default:
		t.Fatal("no wake-up after Reset")
	}
}

func TestDrainedAt(t *testing.T) {
	s := New()
	t0, empty := s.DrainedAt()
	if !empty || t0.IsZero() {
		t.Fatalf("fresh sequence: DrainedAt = %v, %v", t0, empty)
	}
	s.Enqueue(&Entry{Index: 1, Kind: KindConnect, Conn: 1})
	if _, empty := s.DrainedAt(); empty {
		t.Fatal("DrainedAt reports empty with a pending entry")
	}
	s.PopConnect()
	t1, empty := s.DrainedAt()
	if !empty || t1.Before(t0) {
		t.Fatalf("after drain: DrainedAt = %v, %v (created %v)", t1, empty, t0)
	}
}

// TestChewBubble: ChewBubble never takes a bubble's last clock, respects
// its cap, and accounts every clock exactly as TickBubble would.
func TestChewBubble(t *testing.T) {
	s := New()
	if got := s.ChewBubble(10); got != 0 {
		t.Fatalf("ChewBubble on empty sequence = %d", got)
	}
	s.Enqueue(&Entry{Index: 1, Kind: KindBubble, NClock: 100})
	s.Enqueue(&Entry{Index: 2, Kind: KindConnect, Conn: 1})
	if got := s.ChewBubble(30); got != 30 {
		t.Fatalf("capped ChewBubble = %d, want 30", got)
	}
	if got := s.ChewBubble(^uint64(0)); got != 69 {
		t.Fatalf("uncapped ChewBubble = %d, want 69 (one clock left)", got)
	}
	if got := s.ChewBubble(^uint64(0)); got != 0 {
		t.Fatalf("ChewBubble on a one-clock bubble = %d", got)
	}
	if h, _ := s.Head(); h.Kind != KindBubble || h.NClock != 1 {
		t.Fatalf("head after chewing = %v with %d clocks", h.Kind, h.NClock)
	}
	if got := s.Progress(); got != 99 {
		t.Fatalf("Progress = %d, want 99", got)
	}
	if !s.TickBubble() {
		t.Fatal("TickBubble did not take the last clock")
	}
	if h, _ := s.Head(); h.Kind != KindConnect {
		t.Fatalf("head after the last tick = %v", h.Kind)
	}
	if got := s.ChewBubble(10); got != 0 {
		t.Fatalf("ChewBubble on a CONNECT head = %d", got)
	}
	if st := s.Stats(); st.BubbleClocks != 100 || s.Progress() != 100 {
		t.Fatalf("BubbleClocks = %d, Progress = %d, want 100", st.BubbleClocks, s.Progress())
	}
	if s.SpecConsumed() != 0 {
		t.Fatal("committed bubble counted as speculative consumption")
	}
}

func TestChewBubbleCountsSpeculativeClocks(t *testing.T) {
	s := New()
	s.EnqueueSpec(&Entry{Kind: KindBubble, NClock: 10})
	if got := s.ChewBubble(4); got != 4 {
		t.Fatalf("ChewBubble = %d", got)
	}
	s.TickBubble()
	if got := s.SpecConsumed(); got != 5 {
		t.Fatalf("SpecConsumed = %d, want 5 (one per clock)", got)
	}
}
