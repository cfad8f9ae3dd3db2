package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Admission errors. The HTTP layer maps errQueueFull to 429 + Retry-After
// (shed load, tell the client when to come back) and errDraining to 503
// (the process is going away; retry against another instance).
var (
	errQueueFull = errors.New("server: every job slot and waiting place taken")
	errDraining  = errors.New("server: draining, not admitting work")
)

// jobStatus is the lifecycle of one admitted job.
type jobStatus string

const (
	statusQueued   jobStatus = "queued"
	statusRunning  jobStatus = "running"
	statusDone     jobStatus = "done"
	statusFailed   jobStatus = "failed"
	statusCanceled jobStatus = "canceled"
)

// job is the pollable record of one async request (GET /v1/jobs/{id}). A
// synchronous request has none; its handler waits for the outcome itself.
// setRunning and finish are no-ops on a nil job so the shared run path
// need not tell the two apart.
type job struct {
	id   string
	kind string

	mu       sync.Mutex
	status   jobStatus
	result   any
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
}

func (j *job) currentStatus() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func (j *job) setRunning() {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.status = statusRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish records the outcome.
func (j *job) finish(result any, err error) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.result, j.err = result, err
	j.finished = time.Now()
	j.status = outcome(err)
	j.mu.Unlock()
}

// outcome is the final status of a job that ended with err. Cancellation
// (from either side of the context tree) is reported as statusCanceled so
// job polls can tell shed/abandoned work from genuine failures.
func outcome(err error) jobStatus {
	switch {
	case err == nil:
		return statusDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return statusCanceled
	default:
		return statusFailed
	}
}

// snapshot returns the job's externally visible state. Durations are live:
// a queued job reports its wait so far, a running job its run so far, so a
// poller watching /v1/jobs/{id} sees where the time is going before the job
// finishes, not only after.
func (j *job) snapshot() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	now := time.Now()
	v := jobView{ID: j.id, Kind: j.kind, Status: string(j.status)}
	if j.started.IsZero() {
		// Never ran: retired while waiting (finished set) or still
		// waiting (live wait so far).
		end := now
		if !j.finished.IsZero() {
			end = j.finished
		}
		v.QueuedMS = float64(end.Sub(j.created)) / float64(time.Millisecond)
	} else {
		v.QueuedMS = float64(j.started.Sub(j.created)) / float64(time.Millisecond)
		if j.finished.IsZero() {
			v.RunMS = float64(now.Sub(j.started)) / float64(time.Millisecond)
		} else {
			v.RunMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	if !j.finished.IsZero() {
		v.Result = j.result
		if j.err != nil {
			v.Error = j.err.Error()
		}
	}
	return v
}

// jobView is the JSON shape of GET /v1/jobs/{id}.
type jobView struct {
	ID       string  `json:"id"`
	Kind     string  `json:"kind"`
	Status   string  `json:"status"`
	QueuedMS float64 `json:"queued_ms,omitempty"`
	RunMS    float64 `json:"run_ms,omitempty"`
	Result   any     `json:"result,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// jobStore tracks async jobs by id so clients can poll them. Finished jobs
// are evicted lazily once they outlive the TTL — every put and get sweeps,
// so an idle store holds at most the jobs finished within one TTL window.
type jobStore struct {
	mu   sync.Mutex
	ttl  time.Duration
	seq  int64
	jobs map[string]*job
}

func newJobStore(ttl time.Duration) *jobStore {
	return &jobStore{ttl: ttl, jobs: make(map[string]*job)}
}

// nextID returns a process-unique job id.
func (s *jobStore) nextID() string {
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("job-%06d", s.seq)
	s.mu.Unlock()
	return id
}

func (s *jobStore) put(j *job) {
	s.mu.Lock()
	s.sweepLocked()
	s.jobs[j.id] = j
	s.mu.Unlock()
}

func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *jobStore) sweepLocked() {
	now := time.Now()
	for id, j := range s.jobs {
		j.mu.Lock()
		expired := !j.finished.IsZero() && now.Sub(j.finished) > s.ttl
		j.mu.Unlock()
		if expired {
			delete(s.jobs, id)
		}
	}
}
