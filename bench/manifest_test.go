package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesBenchmark holds BENCHMARK.json to the driver's
// schema limits and to the tables in spec.go — the names -list prints —
// so the manifest cannot declare a metric the benchmark does not emit,
// or miss one it does.
func TestManifestMatchesBenchmark(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Paths {
		if st, err := os.Stat(filepath.Join("..", p)); err != nil || !st.IsDir() {
			t.Errorf("paths entry %q is not a directory of the repo (%v)", p, err)
		}
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", m.RunSeconds, defaultSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in spec.go, 2 to 8 allowed", n, len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range m.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest has %q (%q), spec.go has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters, 1 to 200 allowed", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricSpec, limit int, bounded bool) {
		if len(got) < 1 || len(got) > limit || len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in spec.go, 1 to %d allowed", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			unique(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d: manifest has %+v, spec.go has %+v", kind, i, g, w)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q does not match %v", g.Name, g.Unit, unitRE)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better is %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, spec.go has %v, (0, 0.25] allowed", g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric carries no bound", g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, 16, true)
	check("per_layer", m.PerLayer, perLayer, 128, false)
	if s := m.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower better", s)
	}
}
