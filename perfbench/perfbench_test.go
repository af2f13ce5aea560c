package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// stream renders the first n requests of a workload's seeded traffic, the
// prepare statements and the open-loop schedule: every byte and instant
// the program is fed.
func stream(t *testing.T, w *workload, seed uint64, n int) []byte {
	t.Helper()
	tr, err := w.traffic(seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, s := range tr.prepare {
		b.WriteString(s + "\n")
	}
	for i := 0; i < n; i++ {
		b.Write(tr.next(i).payload)
	}
	if w.rate > 0 {
		fmt.Fprintln(&b, arrivals(seed, w.rate, 5*time.Second))
	}
	cfg := clusterConfig(w, 0, seed, false)
	fmt.Fprintln(&b, cfg.Seed, cfg.NetOptions.Seed)
	return b.Bytes()
}

func TestSeedDrivesRequestStream(t *testing.T) {
	for _, w := range workloads {
		a, again, other := stream(t, w, 7, 500), stream(t, w, 7, 500), stream(t, w, 8, 500)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestArrivalsKeepRateAndOrder(t *testing.T) {
	sched := arrivals(3, 140, 10*time.Second)
	if len(sched) != 1400 {
		t.Fatalf("%d arrivals in 10s at 140/s", len(sched))
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] < sched[i-1] || sched[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v after %v", i, sched[i], sched[i-1])
		}
	}
}

func TestChecksRejectWrongReplies(t *testing.T) {
	body := referencePHP("www/page0.php", []byte("<?php echo render_page(0); ?>\n"), httpdPHPChunks)
	page := fmt.Sprintf("HTTP/1.0 200 OK\r\nServer: x\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	tr, err := sysbenchTraffic(1)
	if err != nil {
		t.Fatal(err)
	}
	var sel, upd request
	for i := 0; sel.check == nil || upd.check == nil; i++ {
		if r := tr.next(i); bytes.HasPrefix(r.payload, []byte("UPDATE")) {
			upd = r
		} else {
			sel = r
		}
	}
	media, err := mediatombTraffic(1)
	if err != nil {
		t.Fatal(err)
	}
	page0, err := httpdTraffic(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		req   request
		reply string
		done  bool // the reply is complete
		ok    bool // no error: the reply is correct, or still incomplete
	}{
		{"page", page0.next(0), page, true, true},
		{"page headers only", page0.next(0), page[:strings.Index(page, "<html>")], false, true},
		{"page status", page0.next(0), strings.Replace(page, "200 OK", "500 Internal Server Error", 1), true, false},
		{"page body", page0.next(0), strings.Replace(page, "chunk 3:", "chunk 3;", 1), true, false},
		{"update", upd, "OK 1\n", true, true},
		{"update missed", upd, "OK 0\n", true, false},
		{"select partial", sel, "ROWS 1\n", false, true},
		{"select empty", sel, "ROWS 0\n\n", true, false},
		{"select wrong row", sel, "ROWS 1\n1|2|c-x|pad-y\n", true, false},
		{"transcode error", media.next(0), "ERROR no such media\n", true, false},
		{"transcode size", media.next(0), "DONE work/video0.mp4 1\n", true, false},
	}
	for _, c := range cases {
		done, err := c.req.check([]byte(c.reply))
		if done != c.done || (err == nil) != c.ok {
			t.Errorf("%s: done=%v err=%v, want done=%v ok=%v", c.name, done, err, c.done, c.ok)
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json's workloads and
// metric lists identical to what the benchmark measures and prints.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range bj.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads:\n got %q\nwant %q", got, want)
	}
	got, want = nil, nil
	for _, m := range bj.EndToEnd {
		got = append(got, fmt.Sprintf("%s %s %s %g", m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range endToEnd {
		want = append(want, fmt.Sprintf("%s %s %s %g", m.name, m.unit, m.better, m.bound))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end:\n got %q\nwant %q", got, want)
	}
	got, want = nil, nil
	for _, m := range bj.PerLayer {
		got = append(got, fmt.Sprintf("%s %s %s", m.Name, m.Unit, m.Better))
	}
	for _, m := range perLayer() {
		want = append(want, fmt.Sprintf("%s %s %s", m.name, m.unit, m.better))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer:\n got %q\nwant %q", got, want)
	}
}

// TestShortRunEmitsEveryMetric runs each workload briefly, untraced and
// traced, from the repository root as the benchmark is run, and checks
// that the result line names every metric with its unit.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts clusters")
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir("perfbench") })
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer()} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "5", "--seconds", "1", "--trace", fmt.Sprint(trace)}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Errorf("%v: exit %d: %s", args, code, stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Errorf("%v: last line: %v", args, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Errorf("%v: result %+v", args, res)
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%v: metric %s: %+v, want unit %s", args, d.name, m, d.unit)
				}
			}
		}
	}
}
