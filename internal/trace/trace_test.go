package trace

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

func TestIdenticalLogsNoDivergence(t *testing.T) {
	a, b := NewOutputLog("r0"), NewOutputLog("r1")
	for i := 0; i < 10; i++ {
		a.Record(uint64(i%3), []byte("response"))
		b.Record(uint64(i%3), []byte("response"))
	}
	if d := Diff(a, b); d != nil {
		t.Fatalf("Diff = %+v", d)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprints differ for identical logs")
	}
}

func TestContentDivergenceDetected(t *testing.T) {
	a, b := NewOutputLog("r0"), NewOutputLog("r1")
	a.Record(1, []byte("200 OK"))
	b.Record(1, []byte("404 Not Found"))
	d := Diff(a, b)
	if d == nil || d.Seq != 0 {
		t.Fatalf("Diff = %+v", d)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprints equal for divergent logs")
	}
}

func TestConnDivergenceDetected(t *testing.T) {
	a, b := NewOutputLog("r0"), NewOutputLog("r1")
	a.Record(1, []byte("x"))
	b.Record(2, []byte("x"))
	if d := Diff(a, b); d == nil {
		t.Fatal("conn-order divergence missed")
	}
}

func TestLengthDivergenceDetected(t *testing.T) {
	a, b := NewOutputLog("r0"), NewOutputLog("r1")
	a.Record(1, []byte("x"))
	a.Record(1, []byte("y"))
	b.Record(1, []byte("x"))
	d := Diff(a, b)
	if d == nil || d.Seq != 1 {
		t.Fatalf("Diff = %+v", d)
	}
}

func TestNormalizerMasksPhysicalTime(t *testing.T) {
	re := regexp.MustCompile(`Date: [^\r\n]+`)
	a, b := NewOutputLog("r0"), NewOutputLog("r1")
	a.SetNormalizer(re)
	b.SetNormalizer(re)
	a.Record(1, []byte("HTTP/1.0 200 OK\r\nDate: Mon, 1 Jan\r\n\r\nbody"))
	b.Record(1, []byte("HTTP/1.0 200 OK\r\nDate: Tue, 2 Feb\r\n\r\nbody"))
	if d := Diff(a, b); d != nil {
		t.Fatalf("normalized logs diverge: %+v", d)
	}
	// But a real content difference still shows through.
	a.Record(1, []byte("body-A"))
	b.Record(1, []byte("body-B"))
	if d := Diff(a, b); d == nil {
		t.Fatal("real divergence masked by normalizer")
	}
}

func TestDiffAll(t *testing.T) {
	l0, l1, l2 := NewOutputLog("r0"), NewOutputLog("r1"), NewOutputLog("r2")
	for _, l := range []*OutputLog{l0, l1, l2} {
		l.Record(1, []byte("same"))
	}
	if got := DiffAll([]*OutputLog{l0, l1, l2}); len(got) != 0 {
		t.Fatalf("DiffAll = %v", got)
	}
	l2.Record(1, []byte("extra"))
	got := DiffAll([]*OutputLog{l0, l1, l2})
	if len(got) != 1 {
		t.Fatalf("DiffAll = %v", got)
	}
	if got := DiffAll([]*OutputLog{l0}); got != nil {
		t.Fatal("DiffAll of one log reported divergence")
	}
}

func TestEventsCopy(t *testing.T) {
	l := NewOutputLog("r")
	l.Record(5, []byte("abc"))
	ev := l.Events()
	ev[0].Data[0] = 'Z'
	// Window slots are reused by later outputs, so Events must hand out
	// its own bytes.
	if got := l.Events()[0].Data[0]; got != 'a' {
		t.Fatalf("Events shares bytes with the log: got %q", got)
	}
	if l.Len() != 1 || l.Name() != "r" {
		t.Fatal("Len/Name broken")
	}
}

// TestWindowBoundsRetainedBytes: only the newest recentOutputs outputs keep
// their bytes, while Len and Fingerprint stay exact over every output.
func TestWindowBoundsRetainedBytes(t *testing.T) {
	a, b := NewOutputLog("r0"), NewOutputLog("r1")
	total := recentOutputs + 100
	for i := 0; i < total; i++ {
		data := []byte(fmt.Sprintf("response %d", i))
		a.Record(uint64(i%7), data)
		b.Record(uint64(i%7), data)
	}
	if a.Len() != total {
		t.Fatalf("Len = %d, want %d", a.Len(), total)
	}
	ev := a.Events()
	if len(ev) != recentOutputs {
		t.Fatalf("retained %d events, want %d", len(ev), recentOutputs)
	}
	if ev[0].Seq != 100 || string(ev[0].Data) != "response 100" || ev[0].Conn != 100%7 {
		t.Fatalf("oldest retained = %+v", ev[0])
	}
	last := ev[len(ev)-1]
	if last.Seq != total-1 || string(last.Data) != fmt.Sprintf("response %d", total-1) {
		t.Fatalf("newest retained = %+v", last)
	}
	if a.Fingerprint() != b.Fingerprint() || Diff(a, b) != nil {
		t.Fatal("identical long logs reported divergent")
	}
}

// TestDiffLocalizesBeyondWindow: a divergence whose bytes have left the
// window is still pinned to its output index by the chained records.
func TestDiffLocalizesBeyondWindow(t *testing.T) {
	a, b := NewOutputLog("r0"), NewOutputLog("r1")
	for i := 0; i < 3*recentOutputs; i++ {
		a.Record(1, []byte("same"))
		if i == 10 {
			b.Record(1, []byte("different"))
		} else {
			b.Record(1, []byte("same"))
		}
	}
	d := Diff(a, b)
	if d == nil || d.Seq != 10 {
		t.Fatalf("Diff = %+v, want divergence at output 10", d)
	}
	if !strings.Contains(d.Reason, "no longer retained") {
		t.Fatalf("reason = %q", d.Reason)
	}
	// A recent divergence quotes the bytes.
	c, e := NewOutputLog("r2"), NewOutputLog("r3")
	for i := 0; i < 3*recentOutputs; i++ {
		c.Record(1, []byte("same"))
		e.Record(1, []byte("same"))
	}
	c.Record(2, []byte("tail-A"))
	e.Record(2, []byte("tail-B"))
	if d := Diff(c, e); d == nil || d.Seq != 3*recentOutputs || !strings.Contains(d.Reason, "tail-A") {
		t.Fatalf("Diff = %+v", d)
	}
}

func TestSetNormalizerAfterRecordPanics(t *testing.T) {
	l := NewOutputLog("r")
	l.Record(1, []byte("x"))
	defer func() {
		if recover() == nil {
			t.Fatal("SetNormalizer after Record did not panic")
		}
	}()
	l.SetNormalizer(regexp.MustCompile("x"))
}
