package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the BENCHMARK.json the driver reads.
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

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogueMatchesBenchmarkJSON holds the program's metric and
// workload catalogue and the driver's declaration of it together, and
// both inside the declaration's own limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: declared %+v, program has %q: %q", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		unique(w.Name)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: declared %+v, program has %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		unique(m.Name)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d in the program (limit 128)", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: declared %+v, program has %+v", i, got, m)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		unique(m.Name)
	}
}

// TestSmoke runs all five workloads at smoke-test size, both halves, and
// checks what the driver will: every declared name reported once, every
// value finite, every end-to-end value non-zero, and nothing failed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			opt := options{seed: 1, seconds: 0.2, short: true, e2e: true, layers: true, outDir: t.TempDir()}
			h := newHarness(w.Name, opt)
			if err := w.run(h); err != nil {
				t.Fatal(err)
			}
			if err := h.writeTrace(); err != nil {
				t.Fatal(err)
			}
			for _, p := range h.problems {
				t.Errorf("mismatch: %s", p)
			}
			var res struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(resultLine(h)), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if want := len(endToEnd) + len(perLayer); len(res.Metrics) != want {
				t.Errorf("%d metrics reported, %d declared", len(res.Metrics), want)
			}
			for _, m := range reported(opt) {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Value == nil {
					t.Errorf("%s: not reported", m.Name)
					continue
				}
				if got.Unit != m.Unit || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0) {
					t.Errorf("%s = %v %s, want a finite number of %s", m.Name, *got.Value, got.Unit, m.Unit)
				}
			}
			for _, m := range endToEnd {
				if h.value(m) <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never zero", m.Name, h.value(m))
				}
			}
			if h.failed != 0 {
				t.Errorf("%d of %d failed", h.failed, h.attempted)
			}
			if _, err := os.Stat(opt.outDir + "/trace-" + w.Name + ".json"); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}
