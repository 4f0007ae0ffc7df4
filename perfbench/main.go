// Command perfbench is the repository benchmark. One run replays one
// workload for a wall-clock budget and prints, as the last line of its
// standard output, one JSON object: the correctness verdict, how many
// boots were attempted and failed, and the metrics.
//
//	bash perfbench/run.sh --workload fleet-cold --seed 1 --seconds 8 --trace 0
//
// run from the repository root (run.sh builds this module and runs it).
// The workloads, seeds and layer table are described in catalog.json;
// `go test .` in this directory is the benchmark's self-test.
//
// A run is a sequence of episodes. Each episode sets the workload up
// from scratch (kernel generation, image registration, construction of
// the host, cluster, broker and storm) and then plays one fixed,
// seed-generated schedule to completion. Episodes repeat until the
// timed phases add up to --seconds. Every episode of one seed replays
// the same inputs, so its virt_ metrics must be bit-identical to the
// first episode's; the run fails if they are not.
//
// --trace 0 prints the end-to-end metrics BENCHMARK.json declares.
// --trace 1 spends half the budget untraced and half traced (spans, a
// sim.Tracer, probes on the broker and placement policy, and a CPU
// profile) and prints the per-layer metrics, plus the tracing overhead
// and the model-accuracy figures. Spans are written to
// .bench_out/spans-<workload>-<seed>.json when the run ends.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/severifast/severifast/internal/artifact"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// arrivals overrides the workload's episode size; the self-test
	// shrinks it, runs leave it 0.
	arrivals int
	// skipModel leaves out the model-accuracy boots (self-test only).
	skipModel bool
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line of a run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var traceFlag int
	fs.StringVar(&opts.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&opts.seed, "seed", 0, "workload seed (BENCHMARK seeds live in perfbench/catalog.json)")
	fs.Float64Var(&opts.seconds, "seconds", 20, "wall-clock budget of the timed phases")
	fs.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	fs.StringVar(&opts.outDir, "out", ".bench_out", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	opts.trace = traceFlag == 1
	rep, err := bench(opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs one workload and returns its report. Any failed
// correctness check is an error: the run then prints no numbers.
func bench(opts options, log io.Writer) (*report, error) {
	w, ok := workloadByName(opts.workload)
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want %s)", opts.workload, workloadNames())
	}
	if opts.seconds <= 0 || math.IsNaN(opts.seconds) {
		return nil, errors.New("--seconds must be positive")
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	budget := time.Duration(opts.seconds * float64(time.Second))
	if !opts.trace {
		// Three episodes at least: host figures are medians over the ones
		// after the first, and setup_s the median of three set-ups or more.
		ph, err := measure(w, opts, budget, 3, nil)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "%s seed %d: %d episodes, %d served boots each, p99 has %d samples beyond it\n",
			w.name, opts.seed, len(ph.episodes), ph.first().served, tailBeyond(ph.first().served, 99))
		attempted, failed := ph.counts()
		return &report{Correct: true, Attempted: attempted, Failed: failed, Metrics: endToEnd(ph)}, nil
	}
	// The untraced half runs two episodes at least, so the overhead
	// compares warm episodes on both sides.
	base, err := measure(w, opts, budget/2, 2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := measure(w, opts, budget/2, 2, tr)
	if err != nil {
		return nil, err
	}
	if err := sameVirt(base.first(), traced.first()); err != nil {
		return nil, fmt.Errorf("traced run changed virtual results: %w", err)
	}
	cat, err := loadCatalog()
	if err != nil {
		return nil, err
	}
	m, err := perLayer(cat, traced, tr)
	if err != nil {
		return nil, err
	}
	untracedRate, tracedRate := median(base.rates()), median(traced.rates())
	m["trace.overhead_frac"] = metric{1 - tracedRate/untracedRate, "frac"}
	if !opts.skipModel {
		errs, err := modelAccuracy()
		if err != nil {
			return nil, err
		}
		for k, v := range errs {
			m["model.err_pp."+k] = metric{v, "pp"}
		}
		fmt.Fprintln(log, "model.err_pp.*: simulated minus paper cold-start reduction (SEVeriFast vs QEMU/OVMF);"+
			" reported, not gated — the cost model is otherwise unvalidated against hardware")
	} else {
		for _, k := range modelKernels {
			m["model.err_pp."+string(k)] = metric{0, "pp"}
		}
	}
	if err := writeSpans(opts, tr); err != nil {
		return nil, err
	}
	attempted, failed := base.counts()
	a, f := traced.counts()
	return &report{Correct: true, Attempted: attempted + a, Failed: failed + f, Metrics: m}, nil
}

// phase is the record of one measured stretch of episodes.
type phase struct {
	episodes []*outcome
}

func (ph *phase) first() *outcome { return ph.episodes[0] }

// counts sums boots attempted, and boots lost to errors or shedding
// (trust-plane denials excluded), over the phase's episodes.
func (ph *phase) counts() (attempted, failed int) {
	for _, e := range ph.episodes {
		attempted += e.submitted
		failed += e.submitted - e.served - e.denied
	}
	return attempted, failed
}

// warm returns the episodes host figures are taken from: all but the
// first, which also warms the process-lifetime caches (interned kernel
// artifacts and their digests, the hostwork pool, heap growth).
func (ph *phase) warm() []*outcome {
	if len(ph.episodes) > 1 {
		return ph.episodes[1:]
	}
	return ph.episodes
}

// rates returns each warm episode's host_boots_per_s.
func (ph *phase) rates() []float64 {
	var out []float64
	for _, e := range ph.warm() {
		out = append(out, float64(e.served)/e.runWall.Seconds())
	}
	return out
}

// measure runs episodes of w until their timed phases add up to budget
// and at least minEpisodes ran. tr, when set, traces every episode,
// CPU-profiles each timed phase, and heap-samples the whole stretch.
// Each episode's virtual outcome must be bit-identical to the first's.
func measure(w *workload, opts options, budget time.Duration, minEpisodes int, tr *tracer) (*phase, error) {
	ph := &phase{}
	if tr != nil {
		heap := startHeapSampler()
		defer func() { tr.heapPeak = heap.finish() }()
	}
	start := time.Now()
	var timed time.Duration
	for len(ph.episodes) < minEpisodes || timed < budget {
		// Collect the previous episode's heap before setting up the next,
		// so the next reuses it and peak RSS is one episode's, not the sum
		// of several. The memory stays with the process: handing it back
		// to the OS and faulting it in again made episodes slower and
		// noisier.
		runtime.GC()
		out, err := runEpisode(w, opts, tr)
		if err != nil {
			return nil, fmt.Errorf("%s episode %d: %w", w.name, len(ph.episodes)+1, err)
		}
		if len(ph.episodes) > 0 {
			if err := sameVirt(ph.first(), out); err != nil {
				return nil, fmt.Errorf("check failed: %s episode %d is not a bit-identical replay of episode 1: %w",
					w.name, len(ph.episodes)+1, err)
			}
		}
		ph.episodes = append(ph.episodes, out)
		timed += out.runWall
		// Stay well inside the per-run time limit on a slow machine.
		if len(ph.episodes) >= minEpisodes && time.Since(start) > 100*time.Second {
			break
		}
	}
	return ph, nil
}

// runEpisode sets w up, plays it, and collects its outcome.
func runEpisode(w *workload, opts options, tr *tracer) (*outcome, error) {
	n := w.arrivals
	if opts.arrivals > 0 {
		n = opts.arrivals
	}
	// The artifact intern table is process-wide and keeps every buffer
	// interned into it, fork-source blobs of warm captures included.
	// Dropping it starts each episode like a fresh process; otherwise a
	// run's memory would grow with its episode count.
	artifact.ResetForTest()
	root := tr.begin("episode", 0)
	defer tr.end(root)
	st := &setupClock{tr: tr, parent: tr.begin("setup", root)}
	cpu0, t0 := readCPUTicks(), time.Now()
	ep, err := w.setup(opts.seed, n, st, tr)
	setup := unstolen(time.Since(t0), cpu0, readCPUTicks())
	tr.end(st.parent)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	runSpan := tr.beginRun(root)
	cpu1, t1 := readCPUTicks(), time.Now()
	err = ep.play(tr)
	runWall := unstolen(time.Since(t1), cpu1, readCPUTicks())
	tr.end(runSpan)
	tr.stopProfile()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	out, err := ep.outcome()
	if err != nil {
		return nil, err
	}
	if out.served == 0 {
		return nil, errors.New("no boot was served")
	}
	out.setup = setup
	out.setupParts = st.parts
	out.runWall = runWall
	out.alloc = after.TotalAlloc - before.TotalAlloc
	out.gcCycles = after.NumGC - before.NumGC
	out.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return out, nil
}

// endToEnd derives the end-to-end metrics of an untraced phase. Host
// figures are medians over episodes, timed in wall-clock seconds less
// hypervisor steal; virtual figures come from the first episode, which
// every other episode reproduced exactly.
func endToEnd(ph *phase) map[string]metric {
	e := ph.first()
	var setups, allocs []float64
	for _, o := range ph.episodes {
		setups = append(setups, o.setup.Seconds())
	}
	for _, o := range ph.warm() {
		allocs = append(allocs, float64(o.alloc)/1024/float64(o.served))
	}
	return map[string]metric{
		"virt_boot_p50_ms":       {ms(e.p50), "ms"},
		"virt_boot_p99_ms":       {ms(e.p99), "ms"},
		"served_frac":            {float64(e.served) / float64(e.submitted), "ratio"},
		"host_boots_per_s":       {median(ph.rates()), "1/s"},
		"host_alloc_kb_per_boot": {median(allocs), "KiB"},
		"host_peak_rss_mb":       {peakRSSMiB(), "MiB"},
		"setup_s":                {median(setups), "s"},
	}
}

// sameVirt checks that two episodes of one seed produced bit-identical
// virtual outcomes, hence the same virt_ metrics.
func sameVirt(a, b *outcome) error {
	if a.submitted != b.submitted || a.served != b.served {
		return fmt.Errorf("served %d/%d vs %d/%d", a.served, a.submitted, b.served, b.submitted)
	}
	if a.p50 != b.p50 || a.p99 != b.p99 {
		return fmt.Errorf("p50/p99 %v/%v vs %v/%v", a.p50, a.p99, b.p50, b.p99)
	}
	if !bytes.Equal(a.virt, b.virt) {
		return errors.New("virtual results differ")
	}
	return nil
}

// tailBeyond is how many of n samples lie beyond the nearest-rank p-th
// percentile.
func tailBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTicks is the machine-wide CPU time split of /proc/stat.
type cpuTicks struct{ total, steal float64 }

// readCPUTicks reads the aggregate "cpu" line of /proc/stat; the zero
// value when it is unavailable.
func readCPUTicks() cpuTicks {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// unstolen scales a wall-clock interval by the share of the machine's
// CPU time the hypervisor did not steal between readings a and b. On a
// shared virtual machine, steal from neighbouring guests otherwise
// swings host timings by a quarter from one minute to the next.
func unstolen(wall time.Duration, a, b cpuTicks) time.Duration {
	d := b.total - a.total
	if d <= 0 {
		return wall
	}
	return time.Duration(float64(wall) * (1 - (b.steal-a.steal)/d))
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(blob), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// writeSpans writes the traced phase's spans under opts.outDir.
func writeSpans(opts options, tr *tracer) error {
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(opts.outDir, fmt.Sprintf("spans-%s-%d.json", opts.workload, opts.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeSpans(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
