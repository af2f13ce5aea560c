// Command perfbench is the repository's end-to-end benchmark: it deploys a
// full-CRANE cluster (three replicas, one lane, one Paxos group,
// speculation off, flight recorder on) in process, drives one seeded
// workload against it from client connections, checks every reply and the
// replicas' output agreement, and prints each metric by name and unit.
//
//	bash perfbench/run.sh --workload httpd-php --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with the
// lifecycle tracer off. With --trace 1 it runs the same traffic three
// times (untraced, traced, and un-replicated ModeNondet) and prints the
// per-layer metrics. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a run that fails the
// correctness check prints no metrics and exits non-zero.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"crane/internal/crane"
	"crane/internal/obs"
	"crane/internal/simnet"
)

// The injected delays crane-bench's cells use (bench.ClusterConfig).
const (
	clientLatency = 30 * time.Microsecond
	clientJitter  = 80 * time.Microsecond
	hubLatency    = 20 * time.Microsecond
	hubJitter     = 50 * time.Microsecond
)

const (
	// setups is how many times a plain run sets up a cluster; setup_s is
	// their median, and the last one is measured.
	setups = 5
	// warmupRequests run after set-up, before the measured phase.
	warmupRequests = 40
	// traceCapacity holds every lifecycle event of a measured phase.
	traceCapacity = 1 << 17
	// drainWait lets partitioned replicas finish in-flight consensus
	// messages before they are stopped.
	drainWait = 20 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fl.Uint64("seed", 1, "workload seed: request stream, arrivals, network and hub jitter")
	seconds := fl.Int("seconds", 15, "measured seconds per phase")
	traced := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	table := fl.Bool("layers", false, "print the layer -> metric -> workload table and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *table {
		printLayers(stdout)
		return 0
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	dur := time.Duration(*seconds) * time.Second
	fmt.Fprintln(stdout, "stamp", stampJSON(w, *seed, *seconds, *traced))

	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(w, *seed, dur, stdout)
	} else {
		res, err = runPlain(w, *seed, dur, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult reports the named metrics of defs from values, or none at all
// when the run failed its correctness check.
func newResult(o *outcome, checkErr error, defs []metricDef, values map[string]float64) (*result, error) {
	res := &result{Correct: checkErr == nil, Attempted: o.ok + o.failed, Failed: o.failed,
		Metrics: map[string]metricValue{}}
	if !res.Correct {
		return res, nil
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res, nil
}

// deployment is one running cluster with its seeded traffic.
type deployment struct {
	w      *workload
	cl     *crane.Cluster
	tr     *traffic
	walDir string
	setup  time.Duration
}

func clusterConfig(w *workload, mode crane.Mode, seed uint64, trace bool) crane.Config {
	cfg := crane.Config{
		Mode:       mode,
		Replicas:   3,
		NetOptions: simnet.Options{Latency: clientLatency, Jitter: clientJitter, Seed: int64(seed>>1) + 1},
		HubLatency: hubLatency,
		HubJitter:  hubJitter,
		Seed:       int64(seed>>1) + 2,
	}
	if trace {
		cfg.TraceCapacity = traceCapacity
	}
	return cfg
}

// deploy starts a cluster, waits for its primary, prepares the server's
// data and warms it up; the elapsed time is the set-up time.
func deploy(w *workload, mode crane.Mode, seed uint64, trace bool) (*deployment, error) {
	t0 := time.Now()
	tr, err := w.traffic(seed)
	if err != nil {
		return nil, err
	}
	cfg := clusterConfig(w, mode, seed, trace)
	d := &deployment{w: w, tr: tr}
	if w.wal && mode != crane.ModeNondet {
		err := os.MkdirAll(".bench_build", 0o755)
		if err == nil {
			d.walDir, err = os.MkdirTemp(".bench_build", "wal-")
		}
		if err != nil {
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		cfg.WALDir = d.walDir
	}
	d.cl, err = crane.StartCluster(cfg, w.spec().Program(false))
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("start %s cluster: %w", mode, err)
	}
	if _, err := d.cl.Primary(); err != nil {
		d.stop()
		return nil, err
	}
	if err := d.prepare(); err != nil {
		d.stop()
		return nil, err
	}
	warm := load{cl: d.cl, port: w.port, tr: tr, conns: conns(), first: 1 << 30}
	if o := summarise(warm.closedLoop(time.Time{}, warmupRequests), t0, 0); o.failed > 0 {
		d.stop()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed, first: %v", o.failed, warmupRequests, o.firstErr)
	}
	d.setup = time.Since(t0)
	return d, nil
}

// prepare sends the traffic's prepare statements over one session, each
// answered "OK", then ends the session with QUIT as the mysql client does.
func (d *deployment) prepare() error {
	if len(d.tr.prepare) == 0 {
		return nil
	}
	conn, err := d.cl.Dial("prepare:1", d.w.port)
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	buf := make([]byte, 512)
	for _, stmt := range d.tr.prepare {
		if _, err := conn.Write([]byte(stmt + "\n")); err != nil {
			return fmt.Errorf("prepare %q: %w", stmt, err)
		}
		var acc []byte
		for !strings.Contains(string(acc), "\n") {
			n, err := conn.Read(buf)
			acc = append(acc, buf[:n]...)
			if err != nil {
				return fmt.Errorf("prepare %q: %w", stmt, err)
			}
		}
		if !strings.HasPrefix(string(acc), "OK") {
			return fmt.Errorf("prepare %q: %q", stmt, acc)
		}
	}
	_, err = conn.Write([]byte("QUIT\n"))
	return err
}

// stop tears the deployment down. It first cuts every replica off the
// consensus hub and lets the Paxos loops drain what they already received:
// Replica.stop closes the WAL without waiting for its Paxos loop to exit,
// and a commit that loop is still handling then panics on the closed log
// ("paxos: wal append: wal: closed").
func (d *deployment) stop() {
	if d.cl != nil {
		for i := 0; i < d.cl.Replicas(); i++ {
			d.cl.PartitionReplica(i)
		}
		time.Sleep(drainWait)
		d.cl.Stop()
	}
	if d.walDir != "" {
		os.RemoveAll(d.walDir)
	}
}

// conns is the client connection count: one per core, as the load comes
// from one process.
func conns() int { return runtime.NumCPU() }

// measure drives the workload for dur and summarises the sessions.
func (d *deployment) measure(seed uint64, dur time.Duration) *outcome {
	l := load{cl: d.cl, port: d.w.port, tr: d.tr, conns: conns()}
	cpu0 := cpuTime()
	t0 := time.Now()
	var samples []sample
	if d.w.rate > 0 {
		samples = l.openLoop(t0, arrivals(seed, d.w.rate, dur))
	} else {
		samples = l.closedLoop(t0.Add(dur), 0)
	}
	return summarise(samples, t0, cpuTime()-cpu0)
}

// verify requires every replica to have drained, logged byte-identical
// outputs, and raised no divergence alarm.
func (d *deployment) verify() error {
	if err := d.cl.WaitQuiescent(30 * time.Second); err != nil {
		return err
	}
	logs := d.cl.OutputLogs()
	if len(logs) != d.cl.Replicas() {
		return fmt.Errorf("%d of %d replicas alive", len(logs), d.cl.Replicas())
	}
	for _, l := range logs[1:] {
		if l.Len() != logs[0].Len() || l.Fingerprint() != logs[0].Fingerprint() {
			return fmt.Errorf("output logs differ: %s has %d outputs (fingerprint %x), %s has %d (%x)",
				logs[0].Name(), logs[0].Len(), logs[0].Fingerprint(), l.Name(), l.Len(), l.Fingerprint())
		}
	}
	for i := 0; i < d.cl.Replicas(); i++ {
		if a := d.cl.Replica(i).DivergenceAlarms(); len(a) > 0 {
			return fmt.Errorf("replica %d raised %d divergence alarms, first: %v", i, len(a), a[0])
		}
	}
	return nil
}

// check is the correctness verdict of one measured phase.
func check(o *outcome, d *deployment) error {
	if o.failed > 0 {
		return fmt.Errorf("%d of %d requests failed, first: %v", o.failed, o.ok+o.failed, o.firstErr)
	}
	if o.ok == 0 {
		return errors.New("no request completed")
	}
	return d.verify()
}

// runPlain sets up `setups` clusters, measures the last with tracing off
// and reports the end-to-end metrics.
func runPlain(w *workload, seed uint64, dur time.Duration, stdout io.Writer) (*result, error) {
	var times []float64
	var d *deployment
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = deploy(w, crane.ModeCrane, seed, false); err != nil {
			return nil, err
		}
		times = append(times, d.setup.Seconds())
	}
	defer d.stop()
	runtime.GC()
	o := d.measure(seed, dur)
	err := check(o, d)
	report(stdout, "crane", o, err)
	fmt.Fprintf(stdout, "setup times (s): %.3f\n", times)
	sort.Float64s(times)
	return newResult(o, err, endToEnd, map[string]float64{
		"p50_ms":         o.p50,
		"p90_ms":         o.p90,
		"throughput_rps": o.throughputRPS,
		"cpu_ms_per_req": o.cpuMsPerReq,
		"rss_peak_mb":    peakRSSMB(),
		"setup_s":        times[len(times)/2],
	})
}

// runTraced measures the same traffic untraced, traced and un-replicated,
// and reports the per-layer metrics of the traced phase.
func runTraced(w *workload, seed uint64, dur time.Duration, stdout io.Writer) (*result, error) {
	phase := func(mode crane.Mode, trace bool, measure func(*deployment) (*outcome, error)) (*outcome, error) {
		d, err := deploy(w, mode, seed, trace)
		if err != nil {
			return nil, err
		}
		defer d.stop()
		runtime.GC()
		o, err := measure(d)
		if err != nil {
			return nil, err
		}
		err = check(o, d)
		label := mode.String()
		if trace {
			label += "+trace"
		}
		report(stdout, label, o, err)
		return o, err
	}
	plain := func(d *deployment) (*outcome, error) { return d.measure(seed, dur), nil }

	base, err := phase(crane.ModeCrane, false, plain)
	if err != nil {
		return failedResult(base, err)
	}
	var a, b *layerSnap
	var primary int
	var events []obs.SpanEvent
	o, err := phase(crane.ModeCrane, true, func(d *deployment) (*outcome, error) {
		p, err := d.cl.Primary()
		if err != nil {
			return nil, err
		}
		primary = p.ID()
		if a, err = snapLayers(d.cl, p); err != nil {
			return nil, err
		}
		o := d.measure(seed, dur)
		if b, err = snapLayers(d.cl, p); err != nil {
			return nil, err
		}
		if n := b.dropped - a.dropped; n > 0 {
			fmt.Fprintf(stdout, "warning: the trace ring dropped %d events; stage percentiles cover a suffix of the phase\n", n)
		}
		events = p.Tracer().Events()
		return o, nil
	})
	if err != nil {
		return failedResult(o, err)
	}
	nondet, err := phase(crane.ModeNondet, false, plain)
	if err != nil {
		return failedResult(nondet, err)
	}
	m := layerMetrics(o, base, nondet, a, b, primary, events)
	for _, line := range breakdownLines(m, o.p50) {
		fmt.Fprintln(stdout, line)
	}
	if m["loadgen.trace_overhead_over_ceiling"] > 0 {
		fmt.Fprintf(stdout, "warning: tracing overhead %.1f%% is above the %d%% ceiling\n",
			m["loadgen.trace_overhead_pct"], traceOverheadCeilingPct)
	}
	return newResult(o, nil, perLayer(), m)
}

// failedResult reports a phase that completed but failed its check, or
// passes on an error that left nothing to report.
func failedResult(o *outcome, err error) (*result, error) {
	if o == nil {
		return nil, err
	}
	return newResult(o, err, nil, nil)
}

// report prints one phase's outcome above the result line.
func report(w io.Writer, label string, o *outcome, err error) {
	fmt.Fprintf(w, "phase %s: %d ok, %d failed in %.2fs; p50 %.3f ms, p90 %.3f ms\n",
		label, o.ok, o.failed, o.t1.Sub(o.t0).Seconds(), o.p50, o.p90)
	if err != nil {
		fmt.Fprintf(w, "phase %s: correctness check failed: %v\n", label, err)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stampJSON records the host and configuration a result was measured on.
func stampJSON(w *workload, seed uint64, seconds, trace int) string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cfg := clusterConfig(w, crane.ModeCrane, seed, trace == 1)
	stamp := map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "source_sha256": sourceDigest(),
		"kernel":          strings.TrimSpace(string(kernel)),
		"client_delay":    fmt.Sprintf("%v±%v", clientLatency, clientJitter),
		"hub_delay":       fmt.Sprintf("%v±%v", hubLatency, hubJitter),
		"replicas":        cfg.Replicas,
		"wtimeout":        "crane.Config default (100µs)",
		"nclock":          "crane.Config default (1000)",
		"lanes":           1,
		"groups":          1,
		"speculation":     cfg.Speculation,
		"flight_recorder": !cfg.NoFlightRecorder,
		"wal":             w.wal,
		"wal_sync":        cfg.WALSync,
		"client_conns":    conns(),
		"open_loop_rate":  w.rate,
	}
	b, _ := json.Marshal(stamp)
	return string(b)
}

// sourceDigest hashes the checkout's Go sources, which identifies the code
// measured where no version-control metadata is available.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if e.IsDir() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func printLayers(w io.Writer) {
	fmt.Fprintln(w, "| layer (module) | metrics | should move | does most work / should not move |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, l := range layers {
		var names []string
		for _, m := range l.metrics {
			names = append(names, m.name)
		}
		fmt.Fprintf(w, "| %s (%s) | %s | %s | %s / %s |\n",
			l.layer, l.module, strings.Join(names, ", "), l.moves, l.mostWork, l.quiet)
	}
}
