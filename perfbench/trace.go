package main

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"github.com/severifast/severifast/internal/cluster"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/sim"
)

// span is one timed interval around a call the benchmark makes into
// the program. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced phase's spans in memory, and the CPU profile
// of that phase. A nil *tracer is the untraced run: every method is a
// no-op, so call sites need no branches.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// run is the open "run" span, the parent of spans recorded inside
	// sim.Engine.Run or Pool.Boot.
	run int

	// profiles holds one CPU profile per traced episode, covering its
	// timed phase only.
	profiles []*bytes.Buffer
	heapPeak uint64 // peak live heap over the traced phase, bytes
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// beginRun opens an episode's "run" span: the timed phase, parent of
// the spans recorded inside sim.Engine.Run or Pool.Boot.
func (t *tracer) beginRun(parent int) int {
	if t == nil {
		return 0
	}
	t.run = t.begin("run", parent)
	return t.run
}

// inRun opens a span under the current episode's "run" span.
func (t *tracer) inRun(name string) int {
	if t == nil {
		return 0
	}
	return t.begin(name, t.run)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the lengths of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) writeSpans(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(t.spans)
}

// startProfile starts CPU-profiling into a new buffer (no-op untraced).
func (t *tracer) startProfile() error {
	if t == nil {
		return nil
	}
	buf := &bytes.Buffer{}
	t.profiles = append(t.profiles, buf)
	return pprof.StartCPUProfile(buf)
}

func (t *tracer) stopProfile() {
	if t != nil {
		pprof.StopCPUProfile()
	}
}

// setupClock times the named set-up steps of one episode and records a
// span for each.
type setupClock struct {
	tr     *tracer
	parent int
	parts  map[string]time.Duration
}

// step runs fn as set-up step name ("kernelgen", "register",
// "cluster_new").
func (c *setupClock) step(name string, fn func() error) error {
	id := c.tr.begin("setup."+name, c.parent)
	t0 := time.Now()
	err := fn()
	if c.parts == nil {
		c.parts = make(map[string]time.Duration)
	}
	c.parts[name] += time.Since(t0)
	c.tr.end(id)
	return err
}

// simProbe is the sim.Tracer the traced run installs on an engine: it
// sums virtual wait and service time per resource class ("psp" for
// every host's PSP, "fabric" for the replication fabric) and counts the
// intervals it saw. next, when set, keeps receiving every callback.
type simProbe struct {
	next      sim.Tracer
	intervals int64
	wait      map[string]time.Duration
	busy      map[string]time.Duration
}

func newSimProbe(next sim.Tracer) *simProbe {
	return &simProbe{next: next, wait: map[string]time.Duration{}, busy: map[string]time.Duration{}}
}

func resourceClass(name string) string {
	if strings.HasPrefix(name, "psp") {
		return "psp"
	}
	return name
}

func (p *simProbe) TraceWait(proc, resource string, from, to sim.Time) {
	p.intervals++
	p.wait[resourceClass(resource)] += to.Sub(from)
	if p.next != nil {
		p.next.TraceWait(proc, resource, from, to)
	}
}

func (p *simProbe) TraceService(proc, resource, label string, from, to sim.Time) {
	p.intervals++
	p.busy[resourceClass(resource)] += to.Sub(from)
	if p.next != nil {
		p.next.TraceService(proc, resource, label, from, to)
	}
}

func (p *simProbe) TraceIdle(proc string, from, to sim.Time) {
	p.intervals++
	if p.next != nil {
		p.next.TraceIdle(proc, from, to)
	}
}

// kbsProbe decorates one host's view of the key broker: it counts
// challenges and redemptions and records a span around each
// redemption. One probe state is shared by every host of a cluster.
type kbsProbe struct {
	inner kbs.Service
	st    *kbsProbeState
}

type kbsProbeState struct {
	tr         *tracer
	challenges int
	redeems    int
}

func (p *kbsProbe) Challenge(tenant string, now sim.Time) (kbs.Challenge, error) {
	p.st.challenges++
	return p.inner.Challenge(tenant, now)
}

func (p *kbsProbe) Redeem(req kbs.RedeemRequest, now sim.Time) (*kbs.RedeemResult, error) {
	p.st.redeems++
	id := p.st.tr.inRun("kbs.Redeem")
	defer p.st.tr.end(id)
	return p.inner.Redeem(req, now)
}

func (p *kbsProbe) Provision(digest [32]byte, label string) error {
	return p.inner.Provision(digest, label)
}

func (p *kbsProbe) Revoke(chipID string) error { return p.inner.Revoke(chipID) }

func (p *kbsProbe) Stats() (kbs.Stats, error) { return p.inner.Stats() }

// placeProbe wraps the cluster's placement policy, counting and timing
// every Place call.
type placeProbe struct {
	inner cluster.Policy
	tr    *tracer
	calls int
}

func (p *placeProbe) Name() string { return p.inner.Name() }

func (p *placeProbe) Place(c *cluster.Cluster, img *cluster.Image, avail []*cluster.HostShard) *cluster.HostShard {
	p.calls++
	id := p.tr.inRun("cluster.Place")
	defer p.tr.end(id)
	return p.inner.Place(c, img, avail)
}
