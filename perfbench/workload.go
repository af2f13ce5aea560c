package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strconv"
	"strings"

	"crane/internal/apps/httpd"
	"crane/internal/apps/mediatomb"
	"crane/internal/bench"
	"crane/internal/cfs"
	"crane/internal/papi"
)

// workload is one traffic mix against one evaluated server (bench.Specs
// supplies the server configurations crane-bench measures).
type workload struct {
	name string
	why  string
	app  string // bench.Specs name
	port int
	// rate is the open-loop Poisson arrival rate in requests per second;
	// zero means a closed loop.
	rate float64
	// wal persists consensus decisions to an on-disk log (Config.WALDir).
	// WALSync stays off: fsync on the shared virtual disk this benchmark
	// was sized on flips between about 0.05 ms and 3 ms at the median from
	// one minute to the next, which doubled sysbench-rw's p50 between runs.
	wal bool
	// traffic derives the seeded request stream.
	traffic func(seed uint64) (*traffic, error)
}

// request is one client session: the bytes sent after dialing and the
// reply check. check reports done=false while the reply is incomplete, and
// once it is complete, whether it is the correct reply.
type request struct {
	payload []byte
	check   func(reply []byte) (done bool, err error)
}

// traffic is a seeded request stream. next(i) is a pure function of the
// seed and i, so concurrent clients claiming indices in any order send the
// same bytes for the same index.
type traffic struct {
	prepare []string // statements sent over one session before warm-up
	next    func(i int) request
}

// workloads are the benchmark's traffic mixes; their reasons are the
// `why` lines of BENCHMARK.json.
var workloads = []*workload{
	{
		name:    "httpd-php",
		why:     "Apache PHP pages, closed loop at nproc connections: DMT execution (consumed->output) has the largest measured share, 54% of p50; admission 34%, consensus 3%",
		app:     "Apache",
		port:    8080,
		traffic: httpdTraffic,
	},
	{
		name:    "sysbench-rw",
		why:     "MySQL 90% SELECT, 10% UPDATE, open-loop Poisson at 140/s, on-disk WAL: admission (committed->consumed) has the largest measured share, 33% of p50; execution 25%, consensus 11%",
		app:     "MySQL",
		port:    3306,
		rate:    140,
		wal:     true,
		traffic: sysbenchTraffic,
	},
	{
		name:    "mediatomb-transcode",
		why:     "MediaTomb transcodes fanned out to segment threads, closed loop: long requests; DMT execution has the largest measured share, 85% of p50; admission 11%, consensus under 1%",
		app:     "MediaTomb",
		port:    50500,
		traffic: mediatombTraffic,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func (w *workload) spec() bench.AppSpec {
	for _, s := range bench.Specs() {
		if s.Name == w.app {
			return s
		}
	}
	panic("perfbench: no bench spec " + w.app)
}

// streamRand is request i's generator: independent of the order in which
// clients claim indices.
func streamRand(seed uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(i)))
}

// httpdPHPChunks is bench.Specs' Apache PHPChunks: the reference page
// below must render the same number of chunks.
const httpdPHPChunks = 8

// httpdTraffic requests /page0.php, as crane-bench's ab load does; the
// server sees the same bytes under every seed (the seed still drives the
// network and hub jitter).
func httpdTraffic(uint64) (*traffic, error) {
	const file = "www/page0.php"
	fs := cfs.New()
	httpd.Install(fs)
	src, ok := fs.Read(file)
	if !ok {
		return nil, fmt.Errorf("httpd install has no %s", file)
	}
	want := referencePHP(file, src, httpdPHPChunks)
	req := request{
		payload: []byte("GET /page0.php HTTP/1.0\r\nHost: crane\r\n\r\n"),
		check: func(reply []byte) (bool, error) {
			status, body, done, err := parseHTTP(reply)
			if !done || err != nil {
				return done, err
			}
			if status != 200 {
				return true, fmt.Errorf("HTTP status %d", status)
			}
			if !bytes.Equal(body, want) {
				return true, fmt.Errorf("page body differs from the reference render (%d vs %d bytes)", len(body), len(want))
			}
			return true, nil
		},
	}
	return &traffic{next: func(int) request { return req }}, nil
}

// referencePHP renders what httpd's PHP interpreter must return for file:
// an independent oracle for the replicated output.
func referencePHP(file string, src []byte, chunks int) []byte {
	h := fnv.New64a()
	h.Write([]byte(file))
	seed := papi.DetRand(uint64(len(src)) ^ h.Sum64())
	var out bytes.Buffer
	fmt.Fprintf(&out, "<html><body><!-- interpreted %s -->\n", file)
	for i := 0; i < chunks; i++ {
		fmt.Fprintf(&out, "<p>chunk %d: %x</p>\n", i, papi.DetRand(seed+uint64(i)))
	}
	out.WriteString("</body></html>\n")
	return out.Bytes()
}

// parseHTTP parses an HTTP/1.0 response with a Content-Length body.
func parseHTTP(b []byte) (status int, body []byte, done bool, err error) {
	end := bytes.Index(b, []byte("\r\n\r\n"))
	if end < 0 {
		return 0, nil, false, nil
	}
	lines := strings.Split(string(b[:end]), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 {
		return 0, nil, true, fmt.Errorf("bad status line %q", lines[0])
	}
	if status, err = strconv.Atoi(parts[1]); err != nil {
		return 0, nil, true, fmt.Errorf("bad status line %q", lines[0])
	}
	length := -1
	for _, ln := range lines[1:] {
		if v, ok := strings.CutPrefix(ln, "Content-Length: "); ok {
			if length, err = strconv.Atoi(v); err != nil {
				return 0, nil, true, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if length < 0 {
		return 0, nil, true, fmt.Errorf("no Content-Length")
	}
	body = b[end+4:]
	if len(body) < length {
		return status, nil, false, nil
	}
	if len(body) > length {
		return status, nil, true, fmt.Errorf("%d bytes past Content-Length", len(body)-length)
	}
	return status, body, true, nil
}

const (
	sysbenchRows      = 200
	sysbenchUpdatePct = 10
)

// sysbenchRow is one prepared sbtest row.
type sysbenchRow struct {
	k      int
	c, pad string
}

// sysbenchTraffic prepares a seeded sbtest table and issues one statement
// per session: a point SELECT, or on sysbenchUpdatePct% of sessions an
// UPDATE of k, both at seeded ids.
func sysbenchTraffic(seed uint64) (*traffic, error) {
	rng := streamRand(seed, -1)
	rows := make([]sysbenchRow, sysbenchRows+1)
	tr := &traffic{prepare: []string{"CREATE TABLE sbtest (id k c pad)"}}
	for id := 1; id <= sysbenchRows; id++ {
		r := sysbenchRow{k: rng.IntN(sysbenchRows) + 1, c: fmt.Sprintf("c-%08d", id),
			pad: fmt.Sprintf("pad-%016x", rng.Uint64())}
		rows[id] = r
		tr.prepare = append(tr.prepare,
			fmt.Sprintf("INSERT INTO sbtest VALUES %d %d '%s' '%s'", id, r.k, r.c, r.pad))
	}
	tr.next = func(i int) request {
		rng := streamRand(seed, i)
		id := rng.IntN(sysbenchRows) + 1
		if rng.IntN(100) < sysbenchUpdatePct {
			k := rng.IntN(sysbenchRows) + 1
			return request{
				payload: []byte(fmt.Sprintf("UPDATE sbtest SET k = %d WHERE id = %d\nQUIT\n", k, id)),
				check:   lineCheck(func(line string) bool { return line == "OK 1" }),
			}
		}
		want := rows[id]
		return request{
			payload: []byte(fmt.Sprintf("SELECT * FROM sbtest WHERE id = %d\nQUIT\n", id)),
			check: func(reply []byte) (bool, error) {
				lines := strings.SplitAfter(string(reply), "\n")
				if len(lines) < 3 { // "ROWS 1\n", the row, and what follows it
					return false, nil
				}
				if lines[0] != "ROWS 1\n" {
					return true, fmt.Errorf("SELECT id %d: %q", id, lines[0])
				}
				// k may have been updated; id, c and pad never are.
				f := strings.Split(strings.TrimSuffix(lines[1], "\n"), "|")
				if len(f) != 4 || f[0] != strconv.Itoa(id) || f[2] != want.c || f[3] != want.pad {
					return true, fmt.Errorf("SELECT id %d: row %q", id, lines[1])
				}
				if _, err := strconv.Atoi(f[1]); err != nil {
					return true, fmt.Errorf("SELECT id %d: k %q", id, f[1])
				}
				if lines[2] != "" {
					return true, fmt.Errorf("SELECT id %d: trailing %q", id, lines[2])
				}
				return true, nil
			},
		}
	}
	return tr, nil
}

// lineCheck completes at the first newline and accepts the line if ok.
func lineCheck(ok func(string) bool) func([]byte) (bool, error) {
	return func(reply []byte) (bool, error) {
		i := bytes.IndexByte(reply, '\n')
		if i < 0 {
			return false, nil
		}
		line := string(reply[:i])
		if !ok(line) || i != len(reply)-1 {
			return true, fmt.Errorf("reply %q", reply)
		}
		return true, nil
	}
}

// mediatombSegments is bench.Specs' MediaTomb Segments: the expected
// output size below depends on the split.
const mediatombSegments = 6

// mediatombTraffic transcodes a seeded choice among the installed videos.
func mediatombTraffic(seed uint64) (*traffic, error) {
	fs := cfs.New()
	mediatomb.Install(fs)
	var want []string
	for v := 0; ; v++ {
		media, ok := fs.Read(fmt.Sprintf("media/video%d.avi", v))
		if !ok {
			break
		}
		// Each encoder halves its segment; the last takes the remainder.
		seg := len(media) / mediatombSegments
		out := (mediatombSegments-1)*(seg/2) + (len(media)-(mediatombSegments-1)*seg)/2
		want = append(want, fmt.Sprintf("DONE work/video%d.mp4 %d", v, out))
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("mediatomb install has no videos")
	}
	return &traffic{next: func(i int) request {
		v := streamRand(seed, i).IntN(len(want))
		line := want[v]
		return request{
			payload: []byte(fmt.Sprintf("TRANSCODE video%d.avi\nQUIT\n", v)),
			check:   lineCheck(func(got string) bool { return got == line }),
		}
	}}, nil
}
