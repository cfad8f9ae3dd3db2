package main

import (
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Host speed probe. Shared hosts change speed by tens of percent between
// runs (neighbours on the same physical cores, hyperthread siblings,
// memory bandwidth, hypervisor steal). While a phase runs, a probe goroutine locked to its
// own thread repeatedly times a fixed job, built only from the standard
// library and this file, in thread CPU time. The job is slower exactly
// when the host runs everything slower, and no change to the repository
// can make it faster or slower. Time-valued metrics are scaled by
// refProbe/probe, rates by the inverse: they read as they would on the
// reference host, so host drift cancels while a change to the daemon does
// not. Raw values are printed alongside.

// refProbe is the probe job's median thread CPU time on the reference
// host (2 vCPUs of a 2.1 GHz x86-64 server, quiet).
const refProbe = 150 * time.Microsecond

// probeEvery spaces the probe jobs. At about 0.1 ms each the probe takes
// about 1% of one processor and delays a request it preempts by at most
// that much.
const probeEvery = 10 * time.Millisecond

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU returns the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) // cannot fail for this clock id
	return time.Duration(ts.Nano())
}

// probeJob sorts a copy of a fixed pseudo-random slice.
type probeJob struct{ src, buf []float64 }

func newProbeJob() *probeJob {
	r := rand.New(rand.NewSource(7))
	j := &probeJob{src: make([]float64, 2048), buf: make([]float64, 2048)}
	for i := range j.src {
		j.src[i] = r.Float64()
	}
	return j
}

func (j *probeJob) run() time.Duration {
	t0 := threadCPU()
	copy(j.buf, j.src)
	sort.Float64s(j.buf)
	return threadCPU() - t0
}

// speedProbe runs the probe job every probeEvery until finish, and reads
// the host's steal time around that span.
type speedProbe struct {
	stop  chan struct{}
	done  chan []float64
	steal stealMark
}

func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan []float64, 1), steal: readSteal()}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		job := newProbeJob()
		job.run() // first touch of the buffers
		var times []float64
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			times = append(times, float64(job.run()))
			select {
			case <-p.stop:
				p.done <- times
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the probe and returns the host speed relative to the
// reference host (below 1 on a slower host): refProbe / median job time,
// times the share of processor time the hypervisor did not steal. Thread
// CPU time excludes stolen time, so the job time alone misses it.
func (p *speedProbe) finish() float64 {
	close(p.stop)
	jobs := <-p.done
	return float64(refProbe) / median(jobs) * (1 - p.steal.since())
}

// stealMark is a reading of the processor-time counters in /proc/stat.
type stealMark struct{ steal, total uint64 }

func readSteal() stealMark {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMark{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var m stealMark
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return stealMark{}
		}
		m.total += v
		if i == 8 {
			m.steal = v
		}
	}
	return m
}

// since returns the share of processor time stolen since m, or 0 when the
// counters are unavailable.
func (m stealMark) since() float64 {
	now := readSteal()
	if now.total <= m.total || m.total == 0 {
		return 0
	}
	return float64(now.steal-m.steal) / float64(now.total-m.total)
}
