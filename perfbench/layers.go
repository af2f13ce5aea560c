package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"crane/internal/crane"
	"crane/internal/obs"
	"crane/internal/seq"
)

// promScrape is one replica's /metrics exposition, parsed: plain series by
// name, and histograms as cumulative (upper bound, count) buckets.
type promScrape struct {
	values map[string]float64
	hists  map[string][]bucket
}

type bucket struct {
	le  float64
	cum float64
}

// scrape renders reg the way the /metrics endpoint does and parses it, so
// the benchmark reads exactly what a production scraper reads.
func scrape(reg *obs.Registry) (promScrape, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return promScrape{}, err
	}
	return parseProm(&buf)
}

func parseProm(buf *bytes.Buffer) (promScrape, error) {
	p := promScrape{values: map[string]float64{}, hists: map[string][]bucket{}}
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return p, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return p, fmt.Errorf("metrics line %q: %w", line, err)
		}
		series := line[:sp]
		if name, le, ok := strings.Cut(series, `_bucket{le="`); ok {
			if le == `+Inf"}` {
				continue // equals _count
			}
			bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
			if err != nil {
				return p, fmt.Errorf("metrics line %q: %w", line, err)
			}
			p.hists[name] = append(p.hists[name], bucket{bound, v})
			continue
		}
		p.values[series] = v
	}
	return p, sc.Err()
}

// histDelta is a histogram's observations between two scrapes.
type histDelta struct {
	buckets []bucket // ascending le; cum holds each bucket's own count here
	count   float64
	sum     float64
}

func deltaHist(a, b promScrape, name string) histDelta {
	d := histDelta{
		count: b.values[name+"_count"] - a.values[name+"_count"],
		sum:   b.values[name+"_sum"] - a.values[name+"_sum"],
	}
	// Empty buckets are elided from the exposition, so the earlier
	// scrape's cumulative count at a bound is that of its largest bucket
	// at or below it.
	cumAt := func(bs []bucket, le float64) float64 {
		c := 0.0
		for _, x := range bs {
			if x.le <= le {
				c = x.cum
			}
		}
		return c
	}
	prev := 0.0
	for _, x := range b.hists[name] {
		cum := x.cum - cumAt(a.hists[name], x.le)
		if n := cum - prev; n > 0 {
			d.buckets = append(d.buckets, bucket{x.le, n})
		}
		prev = cum
	}
	return d
}

// quantile interpolates linearly inside the power-of-two bucket holding
// the q-th observation (each bucket spans [le/2, le)), as Prometheus'
// histogram_quantile does.
func (d histDelta) quantile(q float64) float64 {
	if d.count <= 0 {
		return 0
	}
	target := q * d.count
	seen := 0.0
	for _, x := range d.buckets {
		if seen+x.cum >= target {
			lo := x.le / 2
			return lo + (x.le-lo)*(target-seen)/x.cum
		}
		seen += x.cum
	}
	return d.buckets[len(d.buckets)-1].le
}

func (d histDelta) mean() float64 {
	if d.count <= 0 {
		return 0
	}
	return d.sum / d.count
}

// layerSnap is everything the per-layer metrics read at one instant.
type layerSnap struct {
	at      time.Time
	prom    []promScrape // per replica
	seq     seq.Stats    // primary
	dmt     crane.Metrics
	spec    crane.SpecStats
	audit   uint64
	alarms  int
	dropped uint64 // tracer events overwritten on the primary
	mem     runtime.MemStats
}

func snapLayers(cl *crane.Cluster, primary *crane.Replica) (*layerSnap, error) {
	s := &layerSnap{at: time.Now()}
	for i := 0; i < cl.Replicas(); i++ {
		r := cl.Replica(i)
		p, err := scrape(r.Obs())
		if err != nil {
			return nil, fmt.Errorf("replica %d metrics: %w", i, err)
		}
		s.prom = append(s.prom, p)
		s.alarms += len(r.DivergenceAlarms())
	}
	s.seq = primary.SeqStats()
	s.dmt = primary.Metrics()
	s.spec = primary.SpecStats()
	s.audit = primary.AuditChecked()
	s.dropped = primary.Tracer().Dropped()
	runtime.ReadMemStats(&s.mem)
	return s, nil
}

// transition is one lifecycle-trace stage pair, attributed to a layer.
type transition struct {
	from, to string
	layer    string // metric prefix
}

var transitions = []transition{
	{obs.StageAdmit, obs.StageProposed, "proxy.admit_to_proposed"},
	{obs.StageProposed, obs.StageCommit, "paxos.propose_to_commit"},
	{obs.StageCommit, obs.StageConsumed, "seq.commit_to_consume"},
	{obs.StageConsumed, obs.StageOutput, "dmt.consume_to_output"},
}

// stageLatencies returns, per transition, the sorted wall-clock deltas (ms)
// of the requests whose both stages fall inside [t0, t1]. It is the
// tracer's Breakdown restricted to the measured phase: the ring also holds
// set-up and warm-up traffic.
func stageLatencies(events []obs.SpanEvent, t0, t1 time.Time) map[string][]float64 {
	lo, hi := t0.UnixNano(), t1.UnixNano()
	byReq := map[uint64]map[string]int64{}
	for _, ev := range events {
		if ev.Req == 0 || ev.Wall < lo || ev.Wall > hi {
			continue
		}
		m := byReq[ev.Req]
		if m == nil {
			m = make(map[string]int64, 5)
			byReq[ev.Req] = m
		}
		if _, dup := m[ev.Stage]; !dup {
			m[ev.Stage] = ev.Wall
		}
	}
	out := map[string][]float64{}
	for _, tr := range transitions {
		var v []float64
		for _, st := range byReq {
			a, okA := st[tr.from]
			b, okB := st[tr.to]
			if okA && okB && b >= a {
				v = append(v, float64(b-a)/1e6)
			}
		}
		sort.Float64s(v)
		out[tr.layer] = v
	}
	return out
}

// layerMetrics derives every per-layer metric of one traced phase. base
// is the untraced run of the same traffic (for the tracing overhead) and
// nondet the ModeNondet baseline.
func layerMetrics(o, base, nondet *outcome, a, b *layerSnap, primary int, events []obs.SpanEvent) map[string]float64 {
	m := map[string]float64{}
	reqs := float64(o.ok)
	per := func(x float64) float64 { return x / reqs }
	pa, pb := a.prom[primary], b.prom[primary]
	diff := func(name string) float64 { return pb.values[name] - pa.values[name] }
	sumDiff := func(name string) float64 {
		t := 0.0
		for i := range b.prom {
			t += b.prom[i].values[name] - a.prom[i].values[name]
		}
		return t
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}

	m["loadgen.dial_p50_ms"] = o.spanP50(func(s *sample) time.Duration { return s.dialed.Sub(s.start) })
	m["loadgen.write_p50_ms"] = o.spanP50(func(s *sample) time.Duration { return s.written.Sub(s.dialed) })
	m["loadgen.reply_wait_p50_ms"] = o.spanP50(func(s *sample) time.Duration { return s.firstByte.Sub(s.written) })
	m["loadgen.close_p50_ms"] = o.spanP50(func(s *sample) time.Duration { return s.closed.Sub(s.last) })
	var late []float64
	for i := range o.samples {
		late = append(late, ms(o.samples[i].start.Sub(o.samples[i].due)))
	}
	sort.Float64s(late)
	m["loadgen.late_p99_ms"] = quantile(late, 0.99)
	m["loadgen.failed_ratio"] = ratio(float64(o.failed), float64(o.ok+o.failed))
	m["loadgen.trace_overhead_pct"] = 100 * (o.p50 - base.p50) / base.p50
	if m["loadgen.trace_overhead_pct"] > traceOverheadCeilingPct {
		m["loadgen.trace_overhead_over_ceiling"] = 1
	} else {
		m["loadgen.trace_overhead_over_ceiling"] = 0
	}

	stages := stageLatencies(events, a.at, b.at)
	for _, tr := range transitions {
		m[tr.layer+"_p50_ms"] = quantile(stages[tr.layer], 0.50)
		m[tr.layer+"_p95_ms"] = quantile(stages[tr.layer], 0.95)
	}

	commits := diff("paxos_commits_total")
	m["proxy.calls_per_req"] = per(diff("proxy_admitted_total"))
	m["proxy.burst_entries_mean"] = deltaHist(pa, pb, "proxy_burst_entries").mean()
	m["proxy.rejected"] = sumDiff("proxy_rejected_total")

	m["paxos.batch_entries_mean"] = deltaHist(pa, pb, "paxos_batch_entries").mean()
	m["paxos.msgs_per_commit"] = ratio(sumDiff("transport_msgs_sent_total"), commits)
	// The in-memory hub counts no wire bytes; the consensus payload the
	// primary ordered is the bytes each commit replicates.
	m["paxos.bytes_per_commit"] = ratio(float64(b.seq.PayloadBytes-a.seq.PayloadBytes), commits)
	m["paxos.view_changes"] = diff("paxos_view_changes_total")

	fsync := deltaHist(pa, pb, "wal_fsync_seconds")
	m["wal.fsync_p50_ms"] = 1e3 * fsync.quantile(0.50)
	m["wal.fsync_p95_ms"] = 1e3 * fsync.quantile(0.95)
	m["wal.fsyncs_per_commit"] = ratio(diff("wal_fsyncs_total"), commits)
	m["wal.batch_records_mean"] = deltaHist(pa, pb, "wal_batch_records").mean()

	bubbles := float64(b.seq.Bubbles - a.seq.Bubbles)
	m["seq.bubble_ratio"] = ratio(bubbles, float64(b.seq.Enqueued-a.seq.Enqueued))
	m["seq.bubbles_per_req"] = per(bubbles)
	m["seq.bubble_clocks_per_req"] = per(float64(b.seq.BubbleClocks - a.seq.BubbleClocks))

	turn := deltaHist(pa, pb, "dmt_turn_wait_seconds")
	m["dmt.turn_wait_p50_ms"] = 1e3 * turn.quantile(0.50)
	m["dmt.turn_wait_p95_ms"] = 1e3 * turn.quantile(0.95)
	m["dmt.turn_waits_per_req"] = per(turn.count)
	m["dmt.token_passes_per_req"] = per(float64(b.dmt.TokenPasses - a.dmt.TokenPasses))
	m["dmt.waits_per_req"] = per(float64(b.dmt.Waits - a.dmt.Waits))
	m["dmt.signals_per_req"] = per(float64(b.dmt.Signals - a.dmt.Signals))
	m["dmt.logical_clocks_per_req"] = per(float64(b.dmt.LogicalClock - a.dmt.LogicalClock))

	m["spec.windows"] = float64(b.spec.Windows - a.spec.Windows)
	m["spec.hit_ratio"] = ratio(float64(b.spec.Hits-a.spec.Hits),
		float64(b.spec.Hits-a.spec.Hits+b.spec.Aborts-a.spec.Aborts))
	m["spec.rollbacks"] = float64(b.spec.Rollbacks - a.spec.Rollbacks)

	m["audit.checked"] = float64(b.audit - a.audit)
	m["audit.divergence_alarms"] = float64(b.alarms)

	m["process.alloc_kb_per_req"] = per(float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / 1024)
	m["process.gc_per_kreq"] = 1000 * per(float64(b.mem.NumGC-a.mem.NumGC))

	m["baseline.p50_ms"] = nondet.p50
	m["baseline.crane_x"] = base.p50 / nondet.p50
	return m
}

// traceOverheadCeilingPct is ROADMAP's paired-trial ceiling on the cost of
// instrumentation.
const traceOverheadCeilingPct = 5

// breakdownLines renders the measured-phase stage table with each stage's
// share of the traced client p50, naming the largest.
func breakdownLines(m map[string]float64, p50 float64) []string {
	var lines []string
	best, bestShare := "", -1.0
	for _, tr := range transitions {
		v := m[tr.layer+"_p50_ms"]
		share := v / p50
		lines = append(lines, fmt.Sprintf("breakdown %-24s p50 %8.3f ms  p95 %8.3f ms  %5.1f%% of client p50",
			tr.from+"->"+tr.to, v, m[tr.layer+"_p95_ms"], 100*share))
		if share > bestShare {
			best, bestShare = strings.SplitN(tr.layer, ".", 2)[0], share
		}
	}
	return append(lines, fmt.Sprintf("breakdown largest share: %s (%.1f%%)", best, 100*bestShare))
}
