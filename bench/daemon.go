package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"toporouting/internal/telemetry"
)

// daemon is one toporoutingd process on a loopback port. Its combined
// output goes to a log file so a failed run can be diagnosed afterwards.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	logf   *os.File
	exited chan struct{} // closed once Wait returns
	err    error         // Wait's result, valid after exited closes
	probe  *http.Client  // scrapes and readiness polls, apart from the load
}

// startDaemon launches bin with args on a free loopback port and returns
// once /readyz answers 200, along with the time from process start to
// readiness.
func startDaemon(bin, logPath string, args []string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{
		cmd:    cmd,
		base:   "http://" + addr,
		logf:   logf,
		exited: make(chan struct{}),
		probe:  &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	deadline := t0.Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("toporoutingd exited before ready (%v); see %s", d.err, logPath)
		default:
		}
		if resp, err := d.probe.Get(d.base + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("toporoutingd not ready after 30s; see %s", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop sends SIGTERM and requires a clean drain: exit status 0 within 20s.
func (d *daemon) stop() error {
	defer d.logf.Close()
	d.probe.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return fmt.Errorf("signal toporoutingd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("toporoutingd did not drain within 20s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("toporoutingd drain: %w", d.err)
	}
	return nil
}

// kill stops the process unconditionally and waits for it to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.probe.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// promScrape is one parsed /metrics exposition, indexed by family name.
type promScrape map[string][]telemetry.PromSample

func (d *daemon) scrapeMetrics() (promScrape, error) {
	resp, err := d.probe.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	out := promScrape{}
	for _, s := range samples {
		out[s.Name] = append(out[s.Name], s)
	}
	return out, nil
}

// sum adds every series of name whose labels include match (nil matches
// all), e.g. sum("toporouting_server_job_wait_ms_sum", nil).
func (p promScrape) sum(name string, match map[string]string) float64 {
	var total float64
next:
	for _, s := range p[name] {
		for k, v := range match {
			if s.Labels[k] != v {
				continue next
			}
		}
		total += s.Value
	}
	return total
}

// histMean is the mean of a bucket histogram family between two scrapes:
// Δ_sum / Δ_count over the matching series, or 0 when nothing was observed.
func histMean(before, after promScrape, family string, match map[string]string) float64 {
	n := after.sum(family+"_count", match) - before.sum(family+"_count", match)
	if n <= 0 {
		return 0
	}
	return (after.sum(family+"_sum", match) - before.sum(family+"_sum", match)) / n
}

// memStats is the part of the daemon's expvar memstats the benchmark reads.
type memStats struct {
	Mallocs      uint64
	PauseTotalNs uint64
	HeapInuse    uint64
}

func (d *daemon) memStats() (memStats, error) {
	var v struct {
		MemStats memStats `json:"memstats"`
	}
	err := d.getJSON("/debug/vars", &v)
	return v.MemStats, err
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime reads the daemon's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may contain spaces; fields
	// resume after the last ')'. utime and stime are fields 14 and 15.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS reads VmHWM, the resident-set high-water mark, in MiB.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fetchTraces reads the daemon's retained request traces.
func (d *daemon) fetchTraces() ([]*telemetry.Trace, error) {
	var v struct {
		Traces []*telemetry.Trace `json:"traces"`
	}
	err := d.getJSON("/debug/traces", &v)
	return v.Traces, err
}

// newLoadClient returns the HTTP client the senders share: at most conns
// connections to the daemon, never compressed.
func newLoadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
	}
}
