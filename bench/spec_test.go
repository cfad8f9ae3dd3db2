package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRepositorySpec validates BENCHMARK.json and checks that it and the
// workload definitions agree on the workload set.
func TestRepositorySpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s has no definition in workloads.go", w.Name)
		}
	}
	for _, w := range workloads {
		if !spec.hasWorkload(w.name) {
			t.Errorf("workload %s is missing from BENCHMARK.json", w.name)
		}
	}
}

func validSpec() map[string]any {
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": 20,
		"workloads": []map[string]any{
			{"name": "a", "why": "one"},
			{"name": "b", "why": "two"},
		},
		"end_to_end": []map[string]any{
			{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
			{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		},
		"per_layer": []map[string]any{
			{"name": "server.encode_ms", "unit": "ms", "better": "lower"},
		},
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(m map[string]any)
		want   string // substring of the error; "" = valid
	}{
		{"valid", func(map[string]any) {}, ""},
		{"unknown key", func(m map[string]any) { m["extra"] = 1 }, "unknown field"},
		{"one workload", func(m map[string]any) {
			m["workloads"] = []map[string]any{{"name": "a", "why": "x"}}
		}, "workloads"},
		{"nine workloads", func(m map[string]any) {
			var ws []map[string]any
			for _, n := range "abcdefghi" {
				ws = append(ws, map[string]any{"name": string(n), "why": "x"})
			}
			m["workloads"] = ws
		}, "workloads"},
		{"bad name", func(m map[string]any) {
			m["workloads"] = []map[string]any{{"name": "a b", "why": "x"}, {"name": "b", "why": "y"}}
		}, "invalid"},
		{"repeated metric", func(m map[string]any) {
			m["per_layer"] = []map[string]any{{"name": "p50_ms", "unit": "ms", "better": "lower"}}
		}, "repeated"},
		{"bad unit", func(m map[string]any) {
			m["per_layer"] = []map[string]any{{"name": "x", "unit": "m s", "better": "lower"}}
		}, "unit"},
		{"no bound", func(m map[string]any) {
			m["end_to_end"] = []map[string]any{{"name": "setup_s", "unit": "s", "better": "lower"}}
		}, "bound"},
		{"bound too wide", func(m map[string]any) {
			m["end_to_end"] = []map[string]any{{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.3}}
		}, "bound"},
		{"layer bound", func(m map[string]any) {
			m["per_layer"] = []map[string]any{{"name": "x", "unit": "ms", "better": "lower", "bound": 0.1}}
		}, "no bound"},
		{"no setup_s", func(m map[string]any) {
			m["end_to_end"] = []map[string]any{{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}}
		}, "setup_s"},
		{"setup_s not widest", func(m map[string]any) {
			m["end_to_end"] = []map[string]any{
				{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
				{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
			}
		}, "largest bound"},
		{"direction", func(m map[string]any) {
			m["per_layer"] = []map[string]any{{"name": "x", "unit": "ms", "better": "less"}}
		}, "higher or lower"},
		{"absolute command", func(m map[string]any) { m["command"] = []string{"/bin/sh"} }, "command"},
		{"run_seconds", func(m map[string]any) { m["run_seconds"] = 61 }, "run_seconds"},
		{"multi-line why", func(m map[string]any) {
			m["workloads"] = []map[string]any{{"name": "a", "why": "x\ny"}, {"name": "b", "why": "y"}}
		}, "one line"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := validSpec()
			c.mutate(m)
			raw, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			_, err = parseSpec(raw)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("valid spec rejected: %v", err)
			case c.want != "" && err == nil:
				t.Fatalf("spec accepted, want an error mentioning %q", c.want)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
