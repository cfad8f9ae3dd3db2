package main

import (
	"errors"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// op is one request of a workload's deterministic sequence. Which fields
// are used depends on the workload: key is a point-set index (topology
// workloads) or a tenant (session workloads).
type op struct {
	key  int
	read bool
	node int
	x, y float64
	body []byte
}

// outcome is what a sender learned from one request. status 0 means a
// transport error.
type outcome struct {
	status   int
	bytes    int
	eventErr bool   // a 200 event stream whose echo carried an error
	cache    string // X-Cache
	traceID  string // X-Trace-ID
}

func (o outcome) ok() bool {
	return o.status != 0 && (o.status < 300 || o.status == http.StatusNotModified) && !o.eventErr
}

// target is a workload's client side: next yields the sequence one op at a
// time (called from one goroutine only), do performs an op (called from
// every sender).
type target interface {
	next() op
	do(o op) outcome
}

// sample is one request's timing. latMS runs from the due time in an open
// loop and from the send in a closed loop; sendMS always from the send.
// lagMS is how late the open-loop scheduler handed the request over.
type sample struct {
	outcome
	latMS  float64
	sendMS float64
	lagMS  float64
	end    time.Time
}

type phase struct {
	samples []sample
	elapsed time.Duration
}

// feed prepares ops ahead of the senders on its own goroutine, so building
// a request (a fresh 2000-point body on topo_cold) is not charged to the
// request's latency. Stop it with stop, which waits for the goroutine.
type feed struct {
	ch   chan op
	quit chan struct{}
	done chan struct{}
}

// feedDepth is a few requests per sender: enough that a sender never
// waits on body generation, small enough to keep few bodies in memory.
const feedDepth = 16

func startFeed(t target) *feed {
	f := &feed{ch: make(chan op, feedDepth), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		for {
			o := t.next()
			select {
			case f.ch <- o:
			case <-f.quit:
				return
			}
		}
	}()
	return f
}

func (f *feed) stop() {
	close(f.quit)
	<-f.done
}

func msSince(t time.Time, now time.Time) float64 {
	return float64(now.Sub(t)) / float64(time.Millisecond)
}

// runOpen drives an open loop: request i is due at start + i/rate whether
// or not earlier ones have returned, and is timed from that due time, so a
// stall shows up in every request queued behind it. One scheduler hands
// requests to `senders` goroutines.
func runOpen(t target, f *feed, rate float64, dur time.Duration, senders int) phase {
	n := int(rate * dur.Seconds())
	type job struct {
		o       op
		due     time.Time
		handoff time.Time
	}
	// Sized to the number of sends: the scheduler never blocks on busy
	// senders, so a slow server shows as latency, not as a slower schedule.
	jobs := make(chan job, n)
	results := make([][]sample, senders)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				sent := time.Now()
				out := t.do(j.o)
				end := time.Now()
				results[w] = append(results[w], sample{
					outcome: out,
					latMS:   msSince(j.due, end),
					sendMS:  msSince(sent, end),
					lagMS:   msSince(j.due, j.handoff),
					end:     end,
				})
			}
		}(w)
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		o := <-f.ch
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{o: o, due: due, handoff: time.Now()}
	}
	close(jobs)
	wg.Wait()
	return phase{samples: merge(results), elapsed: time.Since(start)}
}

// runClosed drives a closed loop: each of `senders` goroutines sends its
// next request when the previous one returns, until dur has passed.
func runClosed(t target, f *feed, dur time.Duration, senders int) phase {
	results := make([][]sample, senders)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := <-f.ch
				sent := time.Now()
				out := t.do(o)
				end := time.Now()
				lat := msSince(sent, end)
				results[w] = append(results[w], sample{outcome: out, latMS: lat, sendMS: lat, end: end})
			}
		}(w)
	}
	wg.Wait()
	return phase{samples: merge(results), elapsed: time.Since(start)}
}

func merge(parts [][]sample) []sample {
	var out []sample
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// summary is the report math over one phase's samples. Latencies are in
// ms; a failed request counts as +Inf, missing every limit.
type summary struct {
	attempted int
	failed    int // transport errors, 429s, other 4xx, 5xx, in-stream event errors
	p50       float64
	p95       float64 // median over windows, see tailWindow
	p99       float64 // whole phase
	lagP99    float64 // open loop only
	bytes     int
}

func summarize(p phase) summary { return summarizeScaled(p, 1) }

// tailWindow is the fewest requests a p95 is taken over: ten lie beyond it.
const tailWindow = 200

// summarizeScaled is summarize with every latency's part after the
// scheduler's handoff multiplied by speed (see calib.go). The generator
// lag before the handoff is the client's timer granularity, not work on
// the host, and stays unscaled.
//
// p95 is the median of the p95s of consecutive windows of at least
// tailWindow requests in completion order (the whole phase when it holds
// fewer than two windows), so one burst of interference from outside
// moves one window's tail, not the result.
func summarizeScaled(p phase, speed float64) summary {
	s := summary{attempted: len(p.samples)}
	byEnd := append([]sample(nil), p.samples...)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].end.Before(byEnd[j].end) })
	lats := make([]float64, 0, len(byEnd))
	lags := make([]float64, 0, len(byEnd))
	for _, x := range byEnd {
		s.bytes += x.bytes
		lags = append(lags, x.lagMS)
		if x.ok() {
			lats = append(lats, x.lagMS+(x.latMS-x.lagMS)*speed)
		} else {
			s.failed++
			lats = append(lats, math.Inf(1))
		}
	}
	windows := max(len(lats)/tailWindow, 1)
	var tails []float64
	for w := 0; w < windows; w++ {
		win := append([]float64(nil), lats[w*len(lats)/windows:(w+1)*len(lats)/windows]...)
		sort.Float64s(win)
		tails = append(tails, quantile(win, 0.95))
	}
	sort.Float64s(tails)
	sort.Float64s(lats)
	sort.Float64s(lags)
	s.p50, s.p95, s.p99 = quantile(lats, 0.5), quantile(tails, 0.5), quantile(lats, 0.99)
	s.lagP99 = quantile(lags, 0.99)
	return s
}

// quantile returns the q-quantile of sorted values by linear interpolation
// between closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(sorted[hi], 1) {
		return sorted[hi]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// cpuMark is the daemon's CPU time read at one instant.
type cpuMark struct {
	at  time.Time
	cpu time.Duration
}

// runClosedMarked runs a closed phase while reading the daemon's CPU time
// once a second, for windowRates.
func runClosedMarked(t target, f *feed, dur time.Duration, senders, pid int) (phase, []cpuMark, error) {
	mark := func() (cpuMark, error) {
		cpu, err := cpuTime(pid)
		return cpuMark{at: time.Now(), cpu: cpu}, err
	}
	first, err := mark()
	if err != nil {
		return phase{}, nil, err
	}
	marks := []cpuMark{first}
	stop := make(chan struct{})
	var markErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				m, err := mark()
				if err != nil {
					markErr = err
					return
				}
				marks = append(marks, m)
			}
		}
	}()
	p := runClosed(t, f, dur, senders)
	close(stop)
	wg.Wait()
	last, err := mark()
	if err := errors.Join(markErr, err); err != nil {
		return phase{}, nil, err
	}
	return p, append(marks, last), nil
}

// windowRates splits a closed phase at the CPU readings and returns the
// median over windows of successful requests per second and of daemon CPU
// milliseconds per successful request. Medians over one-second windows
// keep a burst of load from a neighbouring process out of the result
// unless it lasts half the phase.
func windowRates(samples []sample, marks []cpuMark) (okPerSec, cpuMSPerOp float64) {
	rate := func(a, b cpuMark) (float64, float64, bool) {
		ok := 0
		for _, s := range samples {
			if s.ok() && s.end.After(a.at) && !s.end.After(b.at) {
				ok++
			}
		}
		sec := b.at.Sub(a.at).Seconds()
		if ok == 0 || sec <= 0 {
			return 0, 0, false
		}
		return float64(ok) / sec, float64(b.cpu-a.cpu) / float64(time.Millisecond) / float64(ok), true
	}
	var rates, cpus []float64
	for i := 1; i < len(marks); i++ {
		// A final sliver of a window (the readings straddling the phase
		// end) is too short to rate.
		if marks[i].at.Sub(marks[i-1].at) < 500*time.Millisecond {
			continue
		}
		if r, c, ok := rate(marks[i-1], marks[i]); ok {
			rates, cpus = append(rates, r), append(cpus, c)
		}
	}
	if len(rates) == 0 && len(marks) > 1 {
		// A phase shorter than one window is rated whole.
		if r, c, ok := rate(marks[0], marks[len(marks)-1]); ok {
			rates, cpus = append(rates, r), append(cpus, c)
		}
	}
	return median(rates), median(cpus)
}
