package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"
	"unsafe"

	"github.com/severifast/severifast"
	"github.com/severifast/severifast/internal/cluster"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
	"github.com/severifast/severifast/internal/trace"
)

// workload is one named input set. setup builds a fresh episode of n
// arrivals (or n closed-loop boots) from seed.
type workload struct {
	name     string
	arrivals int
	setup    func(seed int64, n int, st *setupClock, tr *tracer) (episode, error)
}

// episode is one set-up instance of a workload: play runs the timed
// phase, outcome reads the results once it is done.
type episode interface {
	play(tr *tracer) error
	outcome() (*outcome, error)
}

// outcome is one episode's results.
type outcome struct {
	submitted, served int
	// denied counts boots the trust plane refused: after a revocation
	// storm that is the correct answer, so it lowers served_frac but is
	// not a failed operation.
	denied int
	// p50 and p99 are the virtual request latencies of served boots.
	p50, p99 time.Duration
	// virt is a canonical encoding of every virtual result of the
	// episode; two episodes of one seed must produce equal bytes.
	virt []byte
	// layer holds the per-layer counters read from the program.
	layer map[string]float64

	// setup and runWall are wall-clock times less the hypervisor's
	// steal (see unstolen).
	setup      time.Duration
	setupParts map[string]time.Duration
	runWall    time.Duration
	alloc      uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// The workloads. Episode sizes keep at least ten samples beyond the p99
// and make an episode last 3 to 5 seconds on a 2-core host, so an
// 8-second run holds about the three episodes a run needs at least.
var workloads = []*workload{
	{name: "fleet-cold", arrivals: 4000, setup: setupFleetCold},
	{name: "pool-warm", arrivals: 5000, setup: setupPoolWarm},
	{name: "cluster-attested", arrivals: 1000, setup: func(seed int64, n int, st *setupClock, tr *tracer) (episode, error) {
		return setupCluster(seed, n, false, st, tr)
	}},
	{name: "cluster-storm", arrivals: 1000, setup: func(seed int64, n int, st *setupClock, tr *tracer) (episode, error) {
		return setupCluster(seed, n, true, st, tr)
	}},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// generated records the presets whose artifacts this process has put
// in the kernelgen cache.
var generated = map[string]bool{}

// kernelgenBuild generates each preset's kernel artifacts once per
// episode: the work a fresh process pays before it can register an
// image. The first episode fills the process-wide kernelgen cache that
// RegisterImage reads; later episodes regenerate explicitly, or they
// would time no kernel generation at all.
func kernelgenBuild(presets ...kernelgen.Preset) error {
	for _, p := range presets {
		var err error
		if generated[p.Name] {
			_, err = p.Build()
		} else {
			_, err = kernelgen.Cached(p)
			generated[p.Name] = err == nil
		}
		if err != nil {
			return fmt.Errorf("kernelgen %s: %w", p.Name, err)
		}
	}
	return nil
}

// ---- fleet-cold -----------------------------------------------------

// Fleet-cold parameters: one host, a worker pool, six images (two per
// kernel preset), Poisson arrivals below the host's PSP capacity.
const (
	fleetWorkers = 8
	fleetImages  = 6
	fleetTenants = 4
	fleetInitrd  = 1 << 20
	fleetMeanGap = 80 * time.Millisecond
)

type fleetEpisode struct {
	eng      *sim.Engine
	host     *kvm.Host
	orch     *fleet.Orchestrator
	probe    *simProbe
	arrivals []arrival
	images   []*fleet.Image
	lat      trace.Series
	deflt0   map[string]int64
	deflt1   map[string]int64
}

// arrival is one open-loop request: its scheduled instant, tenant and
// image index.
type arrival struct {
	at     time.Duration
	tenant int
	image  int
}

// poisson draws n arrivals with exponential gaps of the given mean and
// uniformly chosen images.
func poisson(seed int64, n, images, tenants int, mean time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, n)
	var t time.Duration
	for i := range out {
		t += time.Duration(rng.ExpFloat64() * float64(mean))
		out[i] = arrival{at: t, tenant: i % tenants, image: rng.Intn(images)}
	}
	return out
}

func setupFleetCold(seed int64, n int, st *setupClock, tr *tracer) (episode, error) {
	presets := kernelgen.Presets()
	var initrds [][]byte
	if err := st.step("kernelgen", func() error {
		for i := 0; i < fleetImages; i++ {
			initrds = append(initrds, kernelgen.BuildInitrd(seed+int64(i), fleetInitrd))
		}
		return kernelgenBuild(presets...)
	}); err != nil {
		return nil, err
	}
	ep := &fleetEpisode{arrivals: poisson(seed, n, fleetImages, fleetTenants, fleetMeanGap)}
	_ = st.step("cluster_new", func() error {
		ep.eng = sim.NewEngine()
		ep.host = kvm.NewHost(ep.eng, costmodel.Default(), seed)
		ep.orch = fleet.New(ep.eng, ep.host, fleet.Config{Name: "fleet", Workers: fleetWorkers})
		if tr != nil {
			ep.probe = newSimProbe(nil)
			ep.eng.SetTracer(ep.probe)
		}
		return nil
	})
	if err := st.step("register", func() error {
		for i := 0; i < fleetImages; i++ {
			p := presets[i%len(presets)]
			p.Cmdline = fmt.Sprintf("%s img=%d", p.Cmdline, i)
			img, err := ep.orch.RegisterImage(fmt.Sprintf("img-%d", i), p, initrds[i])
			if err != nil {
				return err
			}
			ep.images = append(ep.images, img)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	ep.eng.Go("bench-arrivals", func(p *sim.Proc) {
		var now time.Duration
		for _, a := range ep.arrivals {
			p.Sleep(a.at - now)
			now = a.at
			due := p.Now()
			err := ep.orch.Submit(p, fleet.Request{
				Tenant: fmt.Sprintf("t%d", a.tenant),
				Image:  ep.images[a.image],
				Done: func(dp *sim.Proc, _ fleet.Tier, err error) {
					if err == nil {
						ep.lat = append(ep.lat, dp.Now().Sub(due))
					}
				},
			})
			_ = err // a refused submission shows up as a submitted, unserved boot
		}
		ep.orch.Close()
	})
	return ep, nil
}

func (ep *fleetEpisode) play(tr *tracer) error {
	ep.deflt0 = defaultCounters()
	id := tr.inRun("sim.Engine.Run")
	ep.eng.Run()
	tr.end(id)
	ep.deflt1 = defaultCounters()
	return ep.orch.Err()
}

func (ep *fleetEpisode) outcome() (*outcome, error) {
	met := ep.orch.Metrics()
	if met.Failed != 0 {
		return nil, fmt.Errorf("check failed: %d boots failed on fleet-cold", met.Failed)
	}
	out := &outcome{
		submitted: len(ep.arrivals),
		served:    len(ep.lat),
		p50:       ep.lat.Percentile(50),
		p99:       ep.lat.Percentile(99),
		layer:     map[string]float64{},
	}
	virt, err := json.Marshal(struct {
		Lat      trace.Series
		Boots    [3]int
		Makespan sim.Time
		PSPBusy  time.Duration
	}{ep.lat, met.Boots, ep.eng.Now(), ep.host.PSP.Resource().BusyTime()})
	if err != nil {
		return nil, err
	}
	out.virt = virt
	fillFleet(out.layer, []*fleet.Orchestrator{ep.orch})
	fillHostStats(out.layer, ep.host.HostStats)
	fillDefault(out.layer, ep.deflt0, ep.deflt1)
	fillPSP(out.layer, ep.host)
	fillSimProbe(out.layer, ep.probe)
	return out, nil
}

// ---- pool-warm ------------------------------------------------------

// poolMemMiB draws the pool image's guest memory size from the seed:
// one function image per seed, sized like a small serverless guest.
func poolMemMiB(seed int64) int {
	return 224 + 8*rand.New(rand.NewSource(seed)).Intn(9)
}

type poolEpisode struct {
	pool   *severifast.Pool
	want   [32]byte
	n      int
	lat    trace.Series
	probe  *simProbe
	inner  *kvm.Host
	deflt0 map[string]int64
	deflt1 map[string]int64
}

func setupPoolWarm(seed int64, n int, st *setupClock, tr *tracer) (episode, error) {
	cfg := severifast.NewConfig(
		severifast.WithKernel(severifast.KernelLupine),
		severifast.WithSeed(seed),
	)
	cfg.MemMiB = poolMemMiB(seed)
	// The pool launches with a key-sharing policy so forks can inherit
	// the donor's key; the expected digest must describe that launch.
	cfg.AllowKeySharing = true
	ep := &poolEpisode{n: n}
	if err := st.step("kernelgen", func() error {
		p, err := kernelgen.PresetByName(string(cfg.Kernel))
		if err != nil {
			return err
		}
		return kernelgenBuild(p)
	}); err != nil {
		return nil, err
	}
	if err := st.step("register", func() error {
		pool, err := severifast.NewPool(cfg, severifast.PoolOptions{})
		ep.pool = pool
		return err
	}); err != nil {
		return nil, err
	}
	want, err := severifast.ExpectedLaunchDigest(cfg)
	if err != nil {
		return nil, err
	}
	ep.want = want
	if tr != nil {
		// The Pool owns its host; the traced run reaches it to read the
		// host's counters and chain a sim.Tracer in front of its
		// telemetry registry. A failed reach leaves those metrics at 0.
		if eng, inner, reg, ok := poolInternals(ep.pool); ok {
			ep.inner = inner
			ep.probe = newSimProbe(reg)
			eng.SetTracer(ep.probe)
		}
	}
	return ep, nil
}

func (ep *poolEpisode) play(tr *tracer) error {
	ep.deflt0 = defaultCounters()
	ep.lat = make(trace.Series, 0, ep.n)
	for i := 0; i < ep.n; i++ {
		id := tr.inRun("Pool.Boot")
		res, err := ep.pool.Boot()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("check failed: pool boot %d: %w", i, err)
		}
		if res.LaunchDigest != ep.want {
			return fmt.Errorf("check failed: pool boot %d launch digest %x, want ExpectedLaunchDigest %x",
				i, res.LaunchDigest[:8], ep.want[:8])
		}
		ep.lat = append(ep.lat, res.Total)
	}
	ep.deflt1 = defaultCounters()
	return nil
}

func (ep *poolEpisode) outcome() (*outcome, error) {
	stats := ep.pool.Stats()
	if err := ep.pool.Close(); err != nil {
		return nil, err
	}
	if stats.Failed != 0 {
		return nil, fmt.Errorf("check failed: %d boots failed on pool-warm", stats.Failed)
	}
	out := &outcome{
		submitted: ep.n,
		served:    stats.Boots,
		p50:       ep.lat.Percentile(50),
		p99:       ep.lat.Percentile(99),
		layer:     map[string]float64{},
	}
	virt, err := json.Marshal(struct {
		Lat   trace.Series
		Stats severifast.PoolStats
	}{ep.lat, stats})
	if err != nil {
		return nil, err
	}
	out.virt = virt
	out.layer["fleet.tier_boots.cold"] = float64(stats.ColdBoots)
	out.layer["fleet.tier_boots.cached-cold"] = float64(stats.CachedColdBoots)
	out.layer["fleet.tier_boots.warm"] = float64(stats.WarmBoots)
	fillDefault(out.layer, ep.deflt0, ep.deflt1)
	if ep.inner != nil {
		fillHostStats(out.layer, ep.inner.HostStats)
		fillPSP(out.layer, ep.inner)
	}
	fillSimProbe(out.layer, ep.probe)
	return out, nil
}

// poolInternals reaches the host a Pool owns — its engine, kvm host and
// telemetry registry — which the facade keeps private. It reads
// unexported fields by name and reports ok=false if they moved.
func poolInternals(p *severifast.Pool) (*sim.Engine, *kvm.Host, *telemetry.Registry, bool) {
	hostField := reflect.ValueOf(p).Elem().FieldByName("host")
	if !hostField.IsValid() {
		return nil, nil, nil, false
	}
	h := exported(hostField)
	host, ok := h.(*severifast.Host)
	if !ok || host == nil {
		return nil, nil, nil, false
	}
	hv := reflect.ValueOf(host).Elem()
	var (
		eng   *sim.Engine
		inner *kvm.Host
		reg   *telemetry.Registry
	)
	for name, dst := range map[string]any{"eng": &eng, "inner": &inner, "reg": &reg} {
		f := hv.FieldByName(name)
		if !f.IsValid() {
			return nil, nil, nil, false
		}
		v := reflect.ValueOf(dst).Elem()
		if f.Type() != v.Type() {
			return nil, nil, nil, false
		}
		v.Set(reflect.ValueOf(exported(f)))
	}
	return eng, inner, reg, eng != nil && inner != nil
}

// exported returns the value of a possibly unexported struct field.
func exported(f reflect.Value) any {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}

// ---- cluster-attested and cluster-storm ------------------------------

// Cluster parameters, shared by both cluster workloads so the storm is
// their only difference. Every warm capture and adoption keeps a
// snapshot of about 30 MiB alive, so hosts x images bounds the run's
// memory: 4 x 4 keeps a run under 2 GiB. Each host is its own chip
// generation, so the storm distrusts one host of four, and the mean gap
// keeps the three left below saturation.
const (
	clusterHosts    = 4
	clusterImages   = 4
	clusterGens     = 4
	clusterMeanGap  = 200 * time.Millisecond
	clusterInitrd   = 512 << 10
	clusterTenants  = 4
	clusterZipfS    = 1.2
	clusterExec     = 10 * time.Millisecond
	clusterTCB      = "2.1.8.115"
	clusterFloor    = "2.1.9.120"
	stormDriftEvery = 250 * time.Millisecond
)

type clusterEpisode struct {
	storm  bool
	eng    *sim.Engine
	c      *cluster.Cluster
	broker *kbs.Broker
	place  *placeProbe
	kprobe *kbsProbeState
	probe  *simProbe
	deflt0 map[string]int64
	deflt1 map[string]int64
}

func setupCluster(seed int64, n int, storm bool, st *setupClock, tr *tracer) (episode, error) {
	preset := kernelgen.Lupine()
	var initrds [][]byte
	if err := st.step("kernelgen", func() error {
		// The seed draws the image population: each image's initrd size,
		// in 4 KiB steps around clusterInitrd.
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < clusterImages; i++ {
			size := clusterInitrd/2 + rng.Intn(clusterInitrd/4096)*4096
			initrds = append(initrds, kernelgen.BuildInitrd(seed+int64(i), size))
		}
		return kernelgenBuild(preset)
	}); err != nil {
		return nil, err
	}
	spec := cluster.TraceSpec{
		Kind:     cluster.TraceZipf,
		Arrivals: n,
		MeanGap:  clusterMeanGap,
		Images:   clusterImages,
		Tenants:  clusterTenants,
		ZipfS:    clusterZipfS,
		Seed:     seed,
	}
	arr, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	ep := &clusterEpisode{storm: storm}
	if err := st.step("cluster_new", func() error {
		tcb, err := kbs.ParseTCB(clusterTCB)
		if err != nil {
			return err
		}
		// tcb-aware on both workloads: outside a storm it balances on free
		// ASIDs. cache-affinity would pin every image to the host that
		// first warmed it, and that one host's queueing made the virtual
		// p50 swing by a third from seed to seed.
		pol, err := cluster.PolicyByName("tcb-aware", seed)
		if err != nil {
			return err
		}
		ep.eng = sim.NewEngine()
		auth := kbs.NewAuthority(seed)
		ep.broker = kbs.NewBroker(auth.Root(), kbs.Config{MinTCB: tcb, Seed: seed})
		for i := 0; i < clusterTenants; i++ {
			ep.broker.AddTenant(fmt.Sprintf("t%d", i), []byte("guest-volume-key"))
		}
		cfg := cluster.Config{
			Hosts:       clusterHosts,
			Policy:      pol,
			EnableWarm:  true,
			Seed:        seed,
			Admission:   ep.broker.PolicyEngine(),
			KBS:         ep.broker,
			Authority:   auth,
			TCB:         tcb,
			Generations: clusterGens,
			AgentSeed:   seed,
			Retry:       fleet.RetryPolicy{Max: 3, Backoff: time.Millisecond},
		}
		if tr != nil {
			ep.place = &placeProbe{inner: pol, tr: tr}
			cfg.Policy = ep.place
			ep.kprobe = &kbsProbeState{tr: tr}
			cfg.WrapKBS = func(_ int, svc kbs.Service) kbs.Service { return &kbsProbe{inner: svc, st: ep.kprobe} }
			ep.probe = newSimProbe(nil)
			ep.eng.SetTracer(ep.probe)
		}
		c, err := cluster.New(ep.eng, cfg)
		if err != nil {
			return err
		}
		ep.c = c
		if !storm {
			return nil
		}
		floor, err := kbs.ParseTCB(clusterFloor)
		if err != nil {
			return err
		}
		// The storm lands a quarter of the way through the schedule, with
		// the rolling drift starting halfway to it.
		at := arr[len(arr)/4].At
		return c.InstallStorm(ep.broker, cluster.StormConfig{
			At:            at,
			Generation:    "gen0",
			Floor:         floor,
			DriftStart:    at / 2,
			DriftInterval: stormDriftEvery,
		})
	}); err != nil {
		return nil, err
	}
	var imgs []*cluster.Image
	if err := st.step("register", func() error {
		for i := 0; i < clusterImages; i++ {
			p := preset
			p.Cmdline = fmt.Sprintf("%s img=%d", p.Cmdline, i)
			img, err := ep.c.RegisterImage(fmt.Sprintf("img-%d", i), p, initrds[i])
			if err != nil {
				return err
			}
			imgs = append(imgs, img)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := ep.c.Play(arr, imgs, clusterExec); err != nil {
		return nil, err
	}
	return ep, nil
}

func (ep *clusterEpisode) play(tr *tracer) error {
	ep.deflt0 = defaultCounters()
	id := tr.inRun("sim.Engine.Run")
	ep.eng.Run()
	tr.end(id)
	ep.deflt1 = defaultCounters()
	if ep.storm {
		// Boots in flight on a platform the storm distrusts are denied by
		// design; they count as submitted and not served.
		return nil
	}
	return ep.c.Err()
}

func (ep *clusterEpisode) outcome() (*outcome, error) {
	sum := ep.c.Summarize()
	for _, h := range sum.PerHost {
		// Under a storm a boot may attest and then be refused at serve
		// time, so the equality only holds on cluster-attested.
		if !ep.storm && h.Attested != h.Boots {
			return nil, fmt.Errorf("check failed: host %s attested %d of %d served boots", h.Host, h.Attested, h.Boots)
		}
	}
	denials := 0
	for _, m := range []map[string]int{sum.Denials, sum.PolicyDenials, sum.DispatchDenials} {
		for _, v := range m {
			denials += v
		}
	}
	if sum.Shed != 0 || sum.Failed > denials {
		return nil, fmt.Errorf("check failed: %d boots shed and %d failed, of which only %d were trust-plane denials",
			sum.Shed, sum.Failed, denials)
	}
	if ep.storm {
		if sum.Storm == nil {
			return nil, errors.New("check failed: the storm never fired")
		}
		if sum.Storm.TaintedWarmServed != 0 {
			return nil, fmt.Errorf("check failed: %d warm boots served from a revoked donor", sum.Storm.TaintedWarmServed)
		}
	}
	virt, err := json.Marshal(sum)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		submitted: sum.Submitted,
		served:    sum.Served,
		denied:    sum.Failed,
		p50:       time.Duration(sum.Latency.P50Ns),
		p99:       time.Duration(sum.Latency.P99Ns),
		virt:      virt,
		layer:     map[string]float64{},
	}
	l := out.layer
	var orchs []*fleet.Orchestrator
	for _, s := range ep.c.Shards() {
		orchs = append(orchs, s.Orch)
		fillHostStats(l, s.Host.HostStats)
		fillPSP(l, s.Host)
	}
	fillFleet(l, orchs)
	fillDefault(l, ep.deflt0, ep.deflt1)
	fillSimProbe(l, ep.probe)

	l["cluster.deferred"] = float64(sum.Deferred)
	l["cluster.queue_max"] = float64(sum.QueueMax)
	l["cluster.hit_rate"] = sum.HitRate
	for tier, ts := range sum.TierBoots {
		l["cluster.tier_virt_p50_ms."+tier] = ms(time.Duration(ts.Latency.P50Ns))
	}
	g := sum.Replication
	l["artifact.peer_fetches"] = float64(g.PeerFetches)
	l["artifact.origin_fetches"] = float64(g.OriginFetches)
	l["artifact.peer_mb"] = mib(g.PeerBytes)
	l["artifact.origin_mb"] = mib(g.OriginBytes)
	if total := g.LocalHits + g.PeerFetches + g.OriginFetches; total > 0 {
		l["artifact.local_hit_frac"] = float64(g.LocalHits) / float64(total)
	}
	l["cluster.warm_adoptions"] = float64(sum.WarmPool.Adoptions)
	l["cluster.published_mb"] = mib(sum.WarmPool.PublishedBytes)
	if s := sum.Storm; s != nil {
		l["storm.warm_invalidations"] = float64(s.WarmInvalidations)
		l["storm.reseeds"] = float64(s.Reseeds)
		l["storm.makespan_to_green_ms"] = ms(time.Duration(s.MakespanToGreenNs))
		spike := 0
		for _, v := range s.DenialSpike {
			spike += v
		}
		l["storm.denial_spike"] = float64(spike)
	}
	ks, err := ep.broker.Stats()
	if err != nil {
		return nil, err
	}
	for _, v := range ks.Denials {
		l["kbs.denials"] += float64(v)
	}
	if t := ks.VerdictHit + ks.VerdictMis; t > 0 {
		l["kbs.verdict_hit_frac"] = float64(ks.VerdictHit) / float64(t)
	}
	if t := ks.ChainHits + ks.ChainMiss; t > 0 {
		l["kbs.chain_hit_frac"] = float64(ks.ChainHits) / float64(t)
	}
	if ep.kprobe != nil {
		l["kbs.challenge_calls"] = float64(ep.kprobe.challenges)
		l["kbs.redeem_calls"] = float64(ep.kprobe.redeems)
	}
	if ep.place != nil {
		l["cluster.place_calls"] = float64(ep.place.calls)
	}
	return out, nil
}

// ---- counters shared by the workloads ---------------------------------

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// defaultCounters snapshots the process-wide host recorder (the
// artifact intern table's digest memo counters live there).
func defaultCounters() map[string]int64 {
	_, c := telemetry.DefaultHostRecorder.Snapshot()
	return c
}

// fillDefault records the artifact digest counters accumulated between
// two snapshots of the process-wide recorder.
func fillDefault(l map[string]float64, before, after map[string]int64) {
	l["artifact.digest_hashed_mb"] += mib(after["artifact.digest.bytes_hashed"] - before["artifact.digest.bytes_hashed"])
	l["artifact.digest_spared_mb"] += mib(after["artifact.digest.bytes_spared"] - before["artifact.digest.bytes_spared"])
}

// fillHostStats adds one kvm host's recorder into the layer counters.
func fillHostStats(l map[string]float64, rec *telemetry.HostRecorder) {
	if rec == nil {
		return
	}
	stages, counters := rec.Snapshot()
	l["psp.pipeline_host_ms"] += float64(stages["psp.pipeline"]) / 1e6
	l["psp.pipeline_calls"] += float64(stages["psp.pipeline.calls"])
	l["guestmem.digest_streamed"] += float64(counters["guestmem.digest.streamed"])
	l["guestmem.fork_adopted"] += float64(counters["guestmem.fork.adopted"])
	l["guestmem.fork_aliased_pages"] += float64(counters["guestmem.fork.aliased_pages"])
}

// fillPSP records the deepest PSP command queue any host saw.
func fillPSP(l map[string]float64, h *kvm.Host) {
	if q := float64(h.PSP.Resource().MaxQueue()); q > l["psp.max_queue"] {
		l["psp.max_queue"] = q
	}
}

// fillSimProbe records the traced engine's virtual wait and service
// time per resource class.
func fillSimProbe(l map[string]float64, p *simProbe) {
	if p == nil {
		return
	}
	l["psp.virt_busy_ms"] = ms(p.busy["psp"])
	l["psp.virt_wait_ms"] = ms(p.wait["psp"])
	l["artifact.fabric_virt_busy_ms"] = ms(p.busy["fabric"])
	l["artifact.fabric_virt_wait_ms"] = ms(p.wait["fabric"])
	l["sim.tracer_intervals"] = float64(p.intervals)
}

// fillFleet folds the orchestrators' metrics into the layer counters.
func fillFleet(l map[string]float64, orchs []*fleet.Orchestrator) {
	var queueWait, attest trace.Series
	var hits, misses uint64
	for _, o := range orchs {
		m := o.Metrics()
		queueWait = append(queueWait, m.QueueWait...)
		attest = append(attest, m.AttestLatency...)
		for t := fleet.TierWarm; t <= fleet.TierCold; t++ {
			l["fleet.tier_boots."+t.String()] += float64(m.Boots[t])
		}
		l["fleet.retries"] += float64(m.Retries)
		l["fleet.failed"] += float64(m.Failed)
		l["fleet.reenrolls"] += float64(m.Reenrolls)
		l["fleet.reattests"] += float64(m.Reattests)
		l["fleet.warm_invalidated"] += float64(m.WarmInvalidated)
		cs := o.CacheStats()
		hits += cs.Hits
		misses += cs.Misses
	}
	l["fleet.queue_wait_virt_p99_ms"] = ms(queueWait.Percentile(99))
	l["fleet.attest_virt_p50_ms"] = ms(attest.Percentile(50))
	if hits+misses > 0 {
		l["fleet.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}
}
