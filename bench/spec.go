package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// Spec is BENCHMARK.json: the command that runs one workload, the workload
// names, and every metric with its unit, direction and (end-to-end only)
// regression bound. The workloads' parameters live in workloads.go,
// keyed by these names; the metric lists decide what a run must print.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []SpecMetric   `json:"end_to_end"`
	PerLayer   []SpecMetric   `json:"per_layer"`
}

// SpecWorkload names one workload and records why it is in the benchmark.
type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type SpecMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
)

// maxBound caps every end-to-end regression bound.
const maxBound = 0.25

func loadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSpec(raw)
}

// parseSpec decodes and validates a BENCHMARK.json document, rejecting
// unknown keys.
func parseSpec(raw []byte) (*Spec, error) {
	if len(raw) > 64<<10 {
		return nil, fmt.Errorf("spec: %d bytes exceeds 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &s, nil
}

func (s *Spec) validate() error {
	if n := len(s.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d entries, want 1-32", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command entry %q is too long or leaves the repository", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		return fmt.Errorf("paths has %d entries, want 1-16", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("path %q is not a relative repository path", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1-60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2-8", n)
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			return fmt.Errorf("workload name %q invalid or repeated", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1-128", n)
	}
	seen = map[string]bool{}
	check := func(m SpecMetric, e2e bool) error {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			return fmt.Errorf("metric name %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q invalid", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			return fmt.Errorf("metric %s: better must be higher or lower, got %q", m.Name, m.Better)
		}
		switch {
		case e2e && m.Bound == nil:
			return fmt.Errorf("metric %s: end-to-end metric needs a bound", m.Name)
		case e2e && (*m.Bound <= 0 || *m.Bound > maxBound):
			return fmt.Errorf("metric %s: bound %v outside (0, %v]", m.Name, *m.Bound, maxBound)
		case !e2e && m.Bound != nil:
			return fmt.Errorf("metric %s: per-layer metrics carry no bound", m.Name)
		}
		return nil
	}
	var setup *SpecMetric
	for i, m := range s.EndToEnd {
		if err := check(m, true); err != nil {
			return err
		}
		if m.Name == "setup_s" {
			setup = &s.EndToEnd[i]
		}
	}
	for _, m := range s.PerLayer {
		if err := check(m, false); err != nil {
			return err
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		return fmt.Errorf("end-to-end metrics need setup_s in s, lower is better")
	}
	for _, m := range s.EndToEnd {
		if *m.Bound > *setup.Bound {
			return fmt.Errorf("setup_s must carry the largest bound; %s has %v > %v", m.Name, *m.Bound, *setup.Bound)
		}
	}
	return nil
}

// metrics returns the metric list a run prints: the end-to-end set, or the
// per-layer set for a traced run.
func (s *Spec) metrics(trace bool) []SpecMetric {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *Spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
