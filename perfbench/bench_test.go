package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/kernelgen"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &b
}

func mustCatalog(t *testing.T) *catalog {
	t.Helper()
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestPackageMapCoversInternal fails when a package lands under
// internal/ without a layer, so its CPU time cannot fall silently into
// the unmapped bucket.
func TestPackageMapCoversInternal(t *testing.T) {
	cat := mustCatalog(t)
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && cat.Packages[e.Name()] == "" {
			t.Errorf("internal/%s has no layer in catalog.json packages", e.Name())
		}
	}
	for _, pkg := range []string{"severifast", "runtime", "perfbench"} {
		if cat.Packages[pkg] == "" {
			t.Errorf("%s has no layer in catalog.json packages", pkg)
		}
	}
	for _, l := range cat.Layers {
		for _, mod := range l.Modules {
			if cat.Packages[mod] != l.Layer {
				t.Errorf("layer %s lists module %s, which the package map puts in %q", l.Layer, mod, cat.Packages[mod])
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json's metric and
// workload lists in step with what perfbench prints and runs.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b := readBenchmarkJSON(t)
	want := mustCatalog(t).perLayerMetrics()
	if len(b.PerLayer) != len(want) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, catalog.json %d", len(b.PerLayer), len(want))
	}
	got := map[string]benchMetric{}
	for _, m := range b.PerLayer {
		got[m.Name] = m
	}
	for _, m := range want {
		if got[m.Name] != m {
			t.Errorf("per-layer metric %+v: BENCHMARK.json has %+v", m, got[m.Name])
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloads[i].name)
		}
	}
}

// tinySize shrinks each workload's episode for the self-test.
var tinySize = map[string]int{
	"fleet-cold":       24,
	"pool-warm":        12,
	"cluster-attested": 24,
	"cluster-storm":    40,
}

// TestTinyRunsEmitEveryMetric runs every workload at a tiny size, both
// untraced and traced, and checks that the run passes its correctness
// checks and prints exactly the metrics BENCHMARK.json declares, each
// with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opts := options{
				workload: w.name,
				seed:     7,
				seconds:  0.001,
				trace:    traced,
				outDir:   t.TempDir(),
				arrivals: tinySize[w.name],
				// The model-accuracy boots are the same for every
				// workload; run them once.
				skipModel: w.name != "pool-warm",
			}
			rep, err := bench(opts, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, traced, m.Name, got.Value)
				}
			}
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.name, traced, rep.Attempted, rep.Failed)
			}
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/severifast/severifast/internal/psp.(*Pipeline).flush":             "psp",
		"github.com/severifast/severifast/internal/fleet.(*Orchestrator).serve.func1": "fleet",
		"github.com/severifast/severifast.(*Pool).Boot":                               "severifast",
		"github.com/severifast/severifast/perfbench.(*kbsProbe).Redeem":               "perfbench",
	} {
		if got, ok := packageOf(fn); !ok || got != want {
			t.Errorf("packageOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "crypto/sha256.block", "main.main"} {
		if got, ok := packageOf(fn); ok {
			t.Errorf("packageOf(%q) = %q; want no repo package", fn, got)
		}
	}
}

// TestCPUSelfSeconds profiles work done inside a repo package and
// checks that the parsed profile charges it there.
func TestCPUSelfSeconds(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		kernelgen.BuildInitrd(1, 1<<20)
	}
	pprof.StopCPUProfile()
	self, err := cpuSelfSeconds(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// BuildInitrd spends most of its time in lz4, which it calls: the
	// innermost repo frame takes the sample.
	cat := mustCatalog(t)
	for pkg := range self {
		if cat.Packages[pkg] == "" {
			t.Errorf("profile bucket %q has no layer", pkg)
		}
	}
	if self["lz4"] <= 0 {
		t.Errorf("no CPU charged to lz4: %v", self)
	}
}
