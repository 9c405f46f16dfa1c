package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/tcp"
)

// tracer is the traced run's recorder. It lives entirely outside the
// program: workloads hand it the interfaces and calls they compose, and it
// times them. Coarse calls become spans (name, start, end, parent) kept in
// memory; hot calls (per ACK, per query) only feed an aggregate. A nil
// *tracer means an untraced run, and every helper then calls straight
// through.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // indices of open spans, innermost last
	aggs   map[string]*agg
	vals   map[string]float64

	// depth counts timed calls currently on the stack. Time spent in a
	// top-level timed call while the engine is running is child time; the
	// rest of RunUntil is the engine's self time.
	depth      int
	inRun      bool
	runNS      int64
	childNS    int64
	pendingMax int

	// slice is the virtual-time step advance uses between Pending samples.
	slice netsim.Time
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// agg is a call aggregate: count, total host time, and (when hist is set) a
// latency histogram.
type agg struct {
	n     int64
	total int64
	hist  *histogram
}

func newTracer(slice netsim.Time) *tracer {
	return &tracer{
		origin: time.Now(),
		aggs:   map[string]*agg{},
		vals:   map[string]float64{},
		slice:  slice,
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// aggregate returns the named aggregate, creating it on first use.
func (t *tracer) aggregate(name string) *agg {
	a := t.aggs[name]
	if a == nil {
		a = &agg{}
		t.aggs[name] = a
	}
	return a
}

// histAgg is aggregate with a latency histogram attached.
func (t *tracer) histAgg(name string) *agg {
	a := t.aggregate(name)
	if a.hist == nil {
		a.hist = &histogram{}
	}
	return a
}

// begin starts a hot timed call; end closes it.
func (t *tracer) begin() int64 {
	t.depth++
	return t.now()
}

func (t *tracer) end(a *agg, start int64) {
	t.depth--
	t.account(a, t.now()-start)
}

// account adds one call of d ns to a. A top-level call made while the
// engine runs is child time of the running RunUntil.
func (t *tracer) account(a *agg, d int64) {
	a.n++
	a.total += d
	if a.hist != nil {
		a.hist.add(d)
	}
	if t.depth == 0 && t.inRun {
		t.childNS += d
	}
}

func (t *tracer) openSpan(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// closeSpan ends the innermost open span and returns its duration.
func (t *tracer) closeSpan(id int) int64 {
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.End = t.now()
	return s.End - s.Start
}

// timeSpan runs fn as a span and a call of the aggregate of the same name,
// and returns its duration; with a nil tracer it just runs fn.
func (t *tracer) timeSpan(name string, fn func()) int64 {
	if t == nil {
		fn()
		return 0
	}
	id := t.openSpan(name)
	t.depth++
	fn()
	t.depth--
	d := t.closeSpan(id)
	t.account(t.aggregate(name), d)
	return d
}

// set records a deterministic count or derived value read after the run.
func (t *tracer) set(name string, v float64) { t.vals[name] = v }

// seconds returns an aggregate's total host time in seconds (0 if unused).
func (t *tracer) seconds(name string) float64 {
	if a := t.aggs[name]; a != nil {
		return float64(a.total) / 1e9
	}
	return 0
}

func (t *tracer) calls(name string) float64 {
	if a := t.aggs[name]; a != nil {
		return float64(a.n)
	}
	return 0
}

// advance runs eng up to until. Untraced it is one RunUntil; traced it runs
// in slices, sampling Pending between them and timing each slice as a span,
// which yields the engine's self time (RunUntil time not covered by a
// wrapped call). Slicing does not change the schedule: RunUntil executes
// every event at or before its deadline and leaves the rest queued.
func advance(eng *netsim.Engine, until netsim.Time, t *tracer) {
	if t == nil {
		eng.RunUntil(until)
		return
	}
	for eng.Now() < until {
		next := eng.Now() + t.slice
		if next > until || t.slice <= 0 {
			next = until
		}
		if p := eng.Pending(); p > t.pendingMax {
			t.pendingMax = p
		}
		t.runSpan(func() { eng.RunUntil(next) })
	}
}

// runSpan times fn as engine time: a span named netsim.run_until whose
// wrapped children are subtracted to give netsim.run_self_s.
func (t *tracer) runSpan(fn func()) {
	id := t.openSpan("netsim.run_until")
	t.inRun = true
	fn()
	t.inRun = false
	t.runNS += t.closeSpan(id)
}

// layerValues folds the recorder into the engine-level per-layer metrics.
func (t *tracer) layerValues() {
	t.set("netsim.run_self_s", float64(t.runNS-t.childNS)/1e9)
	t.set("netsim.pending_max", float64(t.pendingMax))
}

// writeSpans appends the run's spans to path as JSON lines.
func (t *tracer) writeSpans(path string, rep int) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Rep int `json:"rep"`
			span
		}{rep, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// histogram is a log-linear latency histogram: 16 sub-buckets per power of
// two, so any quantile it reports is within 1/16 of the true value.
type histogram struct {
	counts [64 * 16]int64
	n      int64
}

func histBucket(ns int64) int {
	if ns < 16 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 5 // shift that leaves a 5-bit mantissa
	return (e+1)*16 + int(uint64(ns)>>uint(e))&15
}

// histLow returns the smallest value that falls in bucket b.
func histLow(b int) int64 {
	if b < 16 {
		return int64(b)
	}
	e := b/16 - 1
	return int64(16+b%16) << uint(e)
}

func (h *histogram) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

// quantile returns the lower edge of the bucket holding quantile q.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n-1))
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen > rank {
			return float64(histLow(b))
		}
	}
	return 0
}

// tracedCC wraps a congestion controller handed to tcp.NewSender.
type tracedCC struct {
	inner                     tcp.CongestionControl
	t                         *tracer
	onAck, onLoss, pace, cwnd *agg
}

func wrapCC(inner tcp.CongestionControl, scheme string, t *tracer) tcp.CongestionControl {
	if t == nil {
		return inner
	}
	p := "cc." + scheme + "."
	return &tracedCC{inner: inner, t: t,
		onAck: t.aggregate(p + "on_ack"), onLoss: t.aggregate(p + "on_loss"),
		pace: t.aggregate(p + "pacing"), cwnd: t.aggregate(p + "cwnd")}
}

func (c *tracedCC) Start(now netsim.Time) { c.inner.Start(now) }

func (c *tracedCC) OnAck(a tcp.AckInfo) {
	s := c.t.begin()
	c.inner.OnAck(a)
	c.t.end(c.onAck, s)
}

func (c *tracedCC) OnLoss(l tcp.LossInfo) {
	s := c.t.begin()
	c.inner.OnLoss(l)
	c.t.end(c.onLoss, s)
}

func (c *tracedCC) PacingRate() int64 {
	s := c.t.begin()
	r := c.inner.PacingRate()
	c.t.end(c.pace, s)
	return r
}

func (c *tracedCC) CwndBytes() int {
	s := c.t.begin()
	w := c.inner.CwndBytes()
	c.t.end(c.cwnd, s)
	return w
}

// ccValues derives the per-scheme cc metrics from the wrapper aggregates.
func (t *tracer) ccValues(schemes ...string) {
	for _, s := range schemes {
		p := "cc." + s + "."
		t.set(p+"on_ack_s", t.seconds(p+"on_ack"))
		nsPerAck := 0.0
		if n := t.calls(p + "on_ack"); n > 0 {
			nsPerAck = t.seconds(p+"on_ack") * 1e9 / n
		}
		t.set(p+"ns_per_ack", nsPerAck)
		t.set(p+"cwnd_calls", t.calls(p+"cwnd"))
		t.set(p+"cwnd_s", t.seconds(p+"cwnd"))
		t.set(p+"pacing_calls", t.calls(p+"pacing"))
	}
}

// tracedBackend wraps a cc.Backend. A backend that also implements
// cc.AckObserver is wrapped by tracedAckBackend instead, so the controllers'
// type assertion (cc/mi.go, cc/alpha.go) still finds it.
type tracedBackend struct {
	inner cc.Backend
	t     *tracer
	query *agg
}

func (b *tracedBackend) Query(state []float64, reply func(action float64)) {
	s := b.t.begin()
	b.inner.Query(state, reply)
	b.t.end(b.query, s)
}

type tracedAckBackend struct {
	*tracedBackend
	obs cc.AckObserver
	ack *agg
}

func (b *tracedAckBackend) OnAckEvent() {
	s := b.t.begin()
	b.obs.OnAckEvent()
	b.t.end(b.ack, s)
}

func wrapBackend(inner cc.Backend, name string, t *tracer) cc.Backend {
	if t == nil {
		return inner
	}
	tb := &tracedBackend{inner: inner, t: t, query: t.histAgg(name + ".query")}
	if o, ok := inner.(cc.AckObserver); ok {
		return &tracedAckBackend{tracedBackend: tb, obs: o, ack: t.aggregate(name + ".ack_event")}
	}
	return tb
}

// checkPreserved reports an error when a wrapper hides an optional interface
// the program type-asserts on the wrapped value. cc.AckObserver is the only
// one today.
func checkPreserved(inner, wrapped cc.Backend) error {
	_, in := inner.(cc.AckObserver)
	_, out := wrapped.(cc.AckObserver)
	if in != out {
		return fmt.Errorf("backend wrapper %T changes cc.AckObserver (inner %T has it: %v, wrapper: %v)", wrapped, inner, in, out)
	}
	return nil
}

// tracedUser wraps a slow-path user's Freezer, Evaluator and Adapter.
type tracedUser struct {
	f     core.Freezer
	e     core.Evaluator
	a     core.Adapter
	t     *tracer
	infer *agg
}

func wrapUser(f core.Freezer, e core.Evaluator, a core.Adapter, t *tracer) (core.Freezer, core.Evaluator, core.Adapter) {
	if t == nil {
		return f, e, a
	}
	u := &tracedUser{f: f, e: e, a: a, t: t, infer: t.aggregate("nn.infer")}
	return u, u, u
}

func (u *tracedUser) Freeze() *nn.Network {
	var n *nn.Network
	u.t.timeSpan("nn.freeze", func() { n = u.f.Freeze() })
	return n
}

func (u *tracedUser) Stability() float64 { return u.e.Stability() }

func (u *tracedUser) Infer(in []float64) []float64 {
	s := u.t.begin()
	out := u.e.Infer(in)
	u.t.end(u.infer, s)
	return out
}

func (u *tracedUser) Adapt(batch []core.Sample) {
	u.t.timeSpan("nn.adapt", func() { u.a.Adapt(batch) })
}

// nnValues derives the slow-path user metrics.
func (t *tracer) nnValues() {
	for _, k := range []string{"adapt", "infer", "freeze"} {
		t.set("nn."+k+"_s", t.seconds("nn."+k))
		t.set("nn."+k+"_calls", t.calls("nn."+k))
	}
}

// wrapDeliver times the slow path's batch delivery.
func wrapDeliver(ch *netlink.Channel, handle func([]netlink.Message), t *tracer) {
	if t == nil {
		return
	}
	ch.SetDeliver(func(b []netlink.Message) {
		t.timeSpan("netlink.deliver", func() { handle(b) })
	})
}

// runtimeProbe samples the Go runtime around one traced run: allocation and
// GC deltas from MemStats, and the peak of live heap objects from a sampler
// goroutine that Stop waits for.
type runtimeProbe struct {
	before runtime.MemStats
	stop   chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{stop: make(chan struct{})}
	runtime.ReadMemStats(&p.before)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.peak {
				p.peak = v
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *runtimeProbe) finish(t *tracer) {
	close(p.stop)
	p.wg.Wait()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	t.set("runtime.alloc_mb", float64(after.TotalAlloc-p.before.TotalAlloc)/(1<<20))
	t.set("runtime.mallocs", float64(after.Mallocs-p.before.Mallocs))
	t.set("runtime.gc_cycles", float64(after.NumGC-p.before.NumGC))
	t.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-p.before.PauseTotalNs)/1e6)
	t.set("runtime.heap_peak_mb", float64(p.peak)/(1<<20))
}
