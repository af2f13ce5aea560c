package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crane/internal/crane"
)

// replyTimeout bounds one session; a request still unanswered then fails.
const replyTimeout = 10 * time.Second

// sample is one client session, with the benchmark's own spans around the
// public calls it makes: Cluster.Dial, Conn.Write, Conn.Read up to the
// first reply byte, and Conn.Close.
type sample struct {
	due       time.Time // scheduled send (open loop) or session start
	start     time.Time // Dial called
	dialed    time.Time
	written   time.Time
	firstByte time.Time
	last      time.Time // last reply byte
	closed    time.Time
	err       error
}

// latency is the client-visible time: from the scheduled send, so a late
// generator's wait counts.
func (s *sample) latency() time.Duration { return s.last.Sub(s.due) }

// session runs one request over a fresh connection, as ab and SysBench
// sessions do.
func session(cl *crane.Cluster, client string, port int, req request) (s sample) {
	s.start = time.Now()
	s.due = s.start
	conn, err := cl.Dial(client, port)
	s.dialed = time.Now()
	if err != nil {
		s.err = fmt.Errorf("dial: %w", err)
		return s
	}
	defer func() {
		conn.Close()
		s.closed = time.Now()
	}()
	if _, err := conn.Write(req.payload); err != nil {
		s.err = fmt.Errorf("write: %w", err)
		return s
	}
	s.written = time.Now()
	conn.SetReadDeadline(s.start.Add(replyTimeout))
	var reply []byte
	buf := make([]byte, 16*1024)
	for {
		n, rerr := conn.Read(buf)
		if n > 0 {
			if reply == nil {
				s.firstByte = time.Now()
			}
			reply = append(reply, buf[:n]...)
			done, cerr := req.check(reply)
			if done {
				s.last = time.Now()
				s.err = cerr
				return s
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				rerr = io.ErrUnexpectedEOF
			}
			s.err = fmt.Errorf("read after %d bytes: %w", len(reply), rerr)
			return s
		}
	}
}

// load is one stretch of traffic against a cluster.
type load struct {
	cl    *crane.Cluster
	port  int
	tr    *traffic
	conns int
	first int // index of the first request in the seeded stream
}

// closedLoop keeps l.conns sessions in flight until until (or until count
// sessions have started, when count > 0). Every started session completes.
func (l load) closedLoop(until time.Time, count int) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (count > 0 && i >= count) || (count == 0 && !time.Now().Before(until)) {
					return
				}
				i += l.first
				s := session(l.cl, fmt.Sprintf("client:%d", i), l.port, l.tr.next(i))
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// arrivals draws a Poisson schedule of offsets below d at rate per second,
// conditioned on its count: rate*d uniform instants, sorted. Fixing the
// count keeps throughput_rps from varying with the seed.
func arrivals(seed uint64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	out := make([]time.Duration, int(rate*d.Seconds()))
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(d)))
	}
	slices.Sort(out)
	return out
}

// openLoop sends request k at t0+sched[k] over at most l.conns concurrent
// sessions; a session that starts late still counts its latency from when
// it was due.
func (l load) openLoop(t0 time.Time, sched []time.Duration) []sample {
	var next atomic.Int64
	out := make([]sample, len(sched))
	var wg sync.WaitGroup
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sched) {
					return
				}
				due := t0.Add(sched[k])
				time.Sleep(time.Until(due))
				i := l.first + k
				s := session(l.cl, fmt.Sprintf("client:%d", i), l.port, l.tr.next(i))
				s.due = due
				out[k] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// outcome summarises a measured stretch of samples.
type outcome struct {
	samples       []sample
	t0, t1        time.Time // phase start; last session closed
	ok, failed    int
	firstErr      error
	p50, p90      float64 // a failed session counts as slower than any reply
	throughputRPS float64
	cpuMsPerReq   float64
}

func summarise(samples []sample, t0 time.Time, cpu time.Duration) *outcome {
	o := &outcome{samples: samples, t0: t0, t1: t0}
	var latMs []float64
	for i := range samples {
		s := &samples[i]
		if s.closed.After(o.t1) {
			o.t1 = s.closed
		}
		if s.err != nil {
			o.failed++
			if o.firstErr == nil {
				o.firstErr = s.err
			}
			latMs = append(latMs, math.Inf(1))
			continue
		}
		o.ok++
		latMs = append(latMs, ms(s.latency()))
	}
	sort.Float64s(latMs)
	o.p50 = quantile(latMs, 0.50)
	o.p90 = quantile(latMs, 0.90)
	if o.ok > 0 {
		o.throughputRPS = float64(o.ok) / o.t1.Sub(t0).Seconds()
		o.cpuMsPerReq = ms(cpu) / float64(o.ok)
	}
	return o
}

// spanP50 is the median of one client span over the correct sessions.
func (o *outcome) spanP50(span func(*sample) time.Duration) float64 {
	var v []float64
	for i := range o.samples {
		if s := &o.samples[i]; s.err == nil {
			v = append(v, ms(span(s)))
		}
	}
	sort.Float64s(v)
	return quantile(v, 0.50)
}

// quantile is the nearest-rank q-quantile of sorted values (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
