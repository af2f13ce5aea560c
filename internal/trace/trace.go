// Package trace records a replica's network outputs for the consistency
// experiments of §7.2: the order and contents of all outgoing socket calls
// are logged per replica and diffed across replicas. Network outputs imply
// a server's execution state — including outcomes of ad-hoc
// synchronization — which synchronization schedules alone cannot capture.
//
// Like the paper (whose logs matched "except physical times in the
// responded HTTP headers"), the log can normalize away designated
// volatile spans (e.g. Date: headers) before comparison.
package trace

import (
	"fmt"
	"regexp"
	"sync"
)

// Event is one outgoing socket call.
type Event struct {
	Seq  int    // per-replica output sequence number
	Conn uint64 // connection id
	Data []byte
}

// recentOutputs is how many of the newest outputs keep their raw bytes.
// Older outputs keep only their compact record, which is all Len,
// Fingerprint and Diff need; the window bounds a long-running replica's
// log memory to the records plus a few hundred responses.
const recentOutputs = 256

// record is what every output keeps for good: its connection and the
// running fingerprint after it. Chained fingerprints localize a divergence
// to the first output whose record differs, without the bytes.
type record struct {
	conn uint64
	hash uint64
}

// OutputLog is a per-replica ordered log of network outputs.
type OutputLog struct {
	mu         sync.Mutex
	name       string
	recs       []record
	recent     [recentOutputs][]byte // raw bytes of output i at recent[i%recentOutputs]
	normalizer *regexp.Regexp
	hash       uint64 // incremental FNV-1a over normalized outputs
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewOutputLog creates a log named after its replica.
func NewOutputLog(name string) *OutputLog {
	return &OutputLog{name: name, hash: fnvOffset}
}

// SetNormalizer installs a regexp whose matches are masked before
// comparison (the paper's "except physical times" carve-out). It must be
// called before the first Record: fingerprints of earlier outputs cannot
// be recomputed once their bytes have left the recent window.
func (l *OutputLog) SetNormalizer(re *regexp.Regexp) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) > 0 {
		panic("trace: SetNormalizer after outputs were recorded")
	}
	l.normalizer = re
}

// hashEvent folds one event into the running FNV-1a hash, using the same
// framing Fingerprint historically used: "conn|" + data + NUL.
func hashEvent(h, conn uint64, data []byte) uint64 {
	for _, b := range []byte(fmt.Sprintf("%d|", conn)) {
		h = (h ^ uint64(b)) * fnvPrime
	}
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return (h ^ 0) * fnvPrime // trailing NUL separator
}

// Record appends one outgoing socket call and folds it into the running
// fingerprint, keeping Fingerprint O(1) instead of rehashing every event.
// It returns the new output count and rolling fingerprint so callers can
// feed divergence-audit samples without re-locking. The bytes are copied
// into the recent window, reusing the slot of the output they displace.
func (l *OutputLog) Record(conn uint64, data []byte) (n int, fp uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hash = hashEvent(l.hash, conn, l.normalized(data))
	slot := &l.recent[len(l.recs)%recentOutputs]
	*slot = append((*slot)[:0], data...)
	l.recs = append(l.recs, record{conn: conn, hash: l.hash})
	return len(l.recs), l.hash
}

// Len returns the number of recorded outputs.
func (l *OutputLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Name returns the replica name.
func (l *OutputLog) Name() string { return l.name }

// Events returns a copy of the newest outputs whose bytes are still
// retained (at most recentOutputs of them), oldest first.
func (l *OutputLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := l.firstRetained()
	out := make([]Event, 0, len(l.recs)-first)
	for i := first; i < len(l.recs); i++ {
		out = append(out, Event{Seq: i, Conn: l.recs[i].conn,
			Data: append([]byte(nil), l.recent[i%recentOutputs]...)})
	}
	return out
}

// firstRetained is the sequence number of the oldest output whose bytes
// are still in the recent window. Caller holds l.mu.
func (l *OutputLog) firstRetained() int {
	if len(l.recs) > recentOutputs {
		return len(l.recs) - recentOutputs
	}
	return 0
}

// retained returns a copy of output i's bytes, or nil once they have left
// the recent window.
func (l *OutputLog) retained(i int) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < l.firstRetained() || i >= len(l.recs) {
		return nil
	}
	return append([]byte(nil), l.recent[i%recentOutputs]...)
}

// records returns a copy of every output's compact record.
func (l *OutputLog) records() []record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]record(nil), l.recs...)
}

func (l *OutputLog) normalized(data []byte) []byte {
	if l.normalizer == nil {
		return data
	}
	return l.normalizer.ReplaceAll(data, []byte("<normalized>"))
}

// Fingerprint returns an FNV-1a hash over the normalized ordered outputs;
// equal fingerprints mean byte-identical (normalized) output streams. The
// hash is maintained incrementally by Record, so this is O(1) — it can be
// polled per request (e.g. by a metrics scrape) without rescanning the log.
func (l *OutputLog) Fingerprint() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hash
}

// Divergence describes the first difference between two logs.
type Divergence struct {
	Seq    int // index of the first differing event (-1: none)
	Reason string
}

// Diff compares two replica logs output by output (after normalization)
// and returns nil if they are identical. Connections and chained
// fingerprints locate the first divergent output however old it is; its
// bytes are quoted when both logs still retain them.
func Diff(a, b *OutputLog) *Divergence {
	ar, br := a.records(), b.records()
	n := len(ar)
	if len(br) < n {
		n = len(br)
	}
	for i := 0; i < n; i++ {
		x, y := ar[i], br[i]
		if x.conn != y.conn {
			return &Divergence{Seq: i, Reason: fmt.Sprintf(
				"%s wrote to conn %d, %s to conn %d", a.name, x.conn, b.name, y.conn)}
		}
		if x.hash != y.hash {
			xd, yd := a.retained(i), b.retained(i)
			if xd == nil || yd == nil {
				return &Divergence{Seq: i, Reason: fmt.Sprintf(
					"contents differ at output %d (bytes no longer retained)", i)}
			}
			return &Divergence{Seq: i, Reason: fmt.Sprintf(
				"contents differ at output %d: %q vs %q", i, truncate(xd), truncate(yd))}
		}
	}
	if len(ar) != len(br) {
		return &Divergence{Seq: n, Reason: fmt.Sprintf(
			"%s logged %d outputs, %s logged %d", a.name, len(ar), b.name, len(br))}
	}
	return nil
}

// DiffAll compares every log against the first; it returns one line per
// divergent replica (empty slice: all consistent).
func DiffAll(logs []*OutputLog) []string {
	var out []string
	if len(logs) < 2 {
		return out
	}
	for _, l := range logs[1:] {
		if d := Diff(logs[0], l); d != nil {
			out = append(out, fmt.Sprintf("%s vs %s: %s", logs[0].name, l.name, d.Reason))
		}
	}
	return out
}

func truncate(b []byte) string {
	const max = 48
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}
