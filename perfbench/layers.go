package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"github.com/severifast/severifast"
	"github.com/severifast/severifast/internal/trace"
)

//go:embed catalog.json
var catalogJSON []byte

// catalog is perfbench/catalog.json: the workloads' descriptions, the
// seeds, the layer table with its per-layer metrics, and the map from
// repo package to layer.
type catalog struct {
	Seeds struct {
		Default int64 `json:"default"`
		HeldOut int64 `json:"held_out"`
	} `json:"seeds"`
	Layers []struct {
		Layer   string   `json:"layer"`
		Modules []string `json:"modules"`
		Metrics []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"metrics"`
	} `json:"layers"`
	Packages map[string]string `json:"packages"`
}

// perLayerMetrics lists every metric a traced run prints: the layer
// table's, then each layer's CPU self time (plus the "unmapped" bucket
// for repo packages the package map misses).
func (c *catalog) perLayerMetrics() []benchMetric {
	var out []benchMetric
	for _, l := range c.Layers {
		for _, m := range l.Metrics {
			better := m.Better
			if better == "" {
				better = "lower"
			}
			out = append(out, benchMetric{Name: m.Name, Unit: m.Unit, Better: better})
		}
	}
	for _, l := range append(c.layerNames(), "unmapped") {
		out = append(out, benchMetric{Name: "layer." + l + ".host_self_s", Unit: "s", Better: "lower"})
	}
	return out
}

// benchMetric is one metric entry as BENCHMARK.json lists it.
type benchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var loadCatalog = sync.OnceValues(func() (*catalog, error) {
	var c catalog
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		return nil, fmt.Errorf("catalog.json: %w", err)
	}
	return &c, nil
})

// layerNames lists the distinct layers of the package map, sorted.
func (c *catalog) layerNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range c.Packages {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// perLayer derives the per-layer metrics of a traced phase. Every value
// is per episode: counters read from the program are averaged over the
// traced episodes (the virtual ones are identical in each), and host
// times are divided by the episode count.
func perLayer(cat *catalog, ph *phase, tr *tracer) (map[string]metric, error) {
	m := map[string]metric{}
	for _, x := range cat.perLayerMetrics() {
		m[x.Name] = metric{0, x.Unit}
	}
	n := float64(len(ph.episodes))
	set := func(name string, v float64) {
		x := m[name]
		x.Value = v
		m[name] = x
	}
	sums := map[string]float64{}
	for _, e := range ph.episodes {
		for k, v := range e.layer {
			sums[k] += v
		}
	}
	for k, v := range sums {
		if _, ok := m[k]; !ok {
			return nil, fmt.Errorf("episode reported %q, which catalog.json does not list", k)
		}
		set(k, v/n)
	}

	usP := func(s []time.Duration, p float64) float64 {
		return float64(trace.Series(s).Percentile(p)) / float64(time.Microsecond)
	}
	boots := tr.durations("Pool.Boot")
	set("pool.boot_host_us_p50", usP(boots, 50))
	set("pool.boot_host_us_p99", usP(boots, 99))
	redeems := tr.durations("kbs.Redeem")
	set("kbs.redeem_host_us_p50", usP(redeems, 50))
	set("kbs.redeem_host_us_p99", usP(redeems, 99))
	var place, run time.Duration
	for _, d := range tr.durations("cluster.Place") {
		place += d
	}
	for _, d := range tr.durations("run") {
		run += d
	}
	set("cluster.place_host_us", float64(place)/float64(time.Microsecond)/n)
	set("run.host_s", run.Seconds()/n)

	var kernelgen, register, clusterNew, pause float64
	var gc uint32
	for _, e := range ph.episodes {
		kernelgen += e.setupParts["kernelgen"].Seconds()
		register += e.setupParts["register"].Seconds()
		clusterNew += e.setupParts["cluster_new"].Seconds()
		gc += e.gcCycles
		pause += float64(e.gcPause) / float64(time.Millisecond)
	}
	set("setup.kernelgen_s", kernelgen/n)
	set("setup.register_s", register/n)
	set("setup.cluster_new_s", clusterNew/n)
	set("runtime.gc_cycles", float64(gc)/n)
	set("runtime.gc_pause_ms", pause/n)
	set("runtime.heap_peak_mb", float64(tr.heapPeak)/(1<<20))
	set("virt.p99_tail_samples", float64(tailBeyond(ph.first().served, 99)))

	self := map[string]float64{}
	for _, prof := range tr.profiles {
		s, err := cpuSelfSeconds(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for pkg, v := range s {
			self[pkg] += v
		}
	}
	layerSelf := map[string]float64{}
	for pkg, s := range self {
		layer, ok := cat.Packages[pkg]
		if !ok {
			layer = "unmapped"
		}
		layerSelf[layer] += s
		if _, listed := m[pkg+".host_self_s"]; listed {
			set(pkg+".host_self_s", s/n)
		}
	}
	for _, l := range append(cat.layerNames(), "unmapped") {
		set("layer."+l+".host_self_s", layerSelf[l]/n)
	}
	return m, nil
}

// heapSampler records the peak of live heap objects while it runs,
// reading runtime/metrics (which does not stop the world) every 10 ms.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// modelKernels are the paper's three kernel configurations, and
// paperReduction the cold-start reductions the paper reports for them
// (SEVeriFast vs QEMU/OVMF, quoted in EXPERIMENTS.md).
var (
	modelKernels   = []severifast.Kernel{severifast.KernelLupine, severifast.KernelAWS, severifast.KernelUbuntu}
	paperReduction = map[severifast.Kernel]float64{
		severifast.KernelLupine: 93.8,
		severifast.KernelAWS:    88.5,
		severifast.KernelUbuntu: 86.1,
	}
)

// modelAccuracy boots each kernel once through the public facade under
// SEVeriFast and under QEMU/OVMF, both to completed attestation (Lupine,
// which has no network, to init), and returns per kernel the simulated
// reduction minus the paper's, in percentage points.
func modelAccuracy() (map[string]float64, error) {
	out := map[string]float64{}
	for _, k := range modelKernels {
		base := severifast.NewConfig(severifast.WithKernel(k), severifast.WithAttestation())
		fast, err := severifast.Boot(base)
		if err != nil {
			return nil, fmt.Errorf("model accuracy, %s: %w", k, err)
		}
		slow, err := severifast.Boot(base.With(severifast.WithScheme(severifast.SchemeQEMUOVMF)))
		if err != nil {
			return nil, fmt.Errorf("model accuracy, %s on QEMU/OVMF: %w", k, err)
		}
		reduction := 100 * (1 - float64(fast.TotalWithAttest)/float64(slow.TotalWithAttest))
		out[string(k)] = reduction - paperReduction[k]
	}
	return out, nil
}
