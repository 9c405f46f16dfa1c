package main

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
	"github.com/liteflow-sim/liteflow/internal/tcp"
	"github.com/liteflow-sim/liteflow/internal/topo"
)

// dumbbellCC is the congested testbed of the paper's Fig 11, once per
// scheme: three dumbbells on one classic serial engine, each a 1 Gbps
// bottleneck with 0.1 Gbps of UDP background, carrying long-lived flows
// under BBR, LF-Aurora (kernel fast path plus an adapting slow path) and
// CCP-Aurora at a 1 ms interval. Separate bottlenecks keep the rate-based
// Aurora flows from starving BBR, so every scheme's per-ACK path does real
// work. Per-packet layers dominate.
var dumbbellCC = workload{name: "dumbbell-cc", slice: netsim.Millisecond, setup: setupDumbbell}

const (
	dbBatch     = 10 * netsim.Millisecond // slow-path batch interval T
	dbPretrain  = 200                     // policy pretraining iterations
	dbJitter    = 10 * netsim.Millisecond // Aurora flow starts are drawn in [0, dbJitter)
	dbDriftStep = 3                       // adapt rounds between model drifts
)

// dbFlows is the flow count per scheme, in ccSchemes order.
func dbFlows(tiny bool) []int {
	if tiny {
		return []int{1, 1, 1}
	}
	return []int{3, 3, 2}
}

// driftUser is the slow-path user of the adapting workloads: its stability
// is constant, so the correctness gate opens after one window, and every
// `every` adapt rounds the output bias jumps by ±0.5 — enough to trip the
// necessity gate and mint a new snapshot.
type driftUser struct {
	net    *nn.Network
	every  int
	rounds int
	sign   float64
}

func (u *driftUser) Freeze() *nn.Network          { return u.net }
func (u *driftUser) Stability() float64           { return 0.5 }
func (u *driftUser) Infer(in []float64) []float64 { return u.net.Infer(in) }
func (u *driftUser) Adapt([]core.Sample) {
	u.rounds++
	if u.every > 0 && u.rounds%u.every == 0 {
		out := u.net.Layers[len(u.net.Layers)-1]
		out.B[0] += u.sign * 0.5
		u.sign = -u.sign
	}
}

// sampledBackend mirrors each fast-path query into the netlink batch buffer,
// the paper's kernel-side data collector (as cmd/lfsim -adapt wires it).
type sampledBackend struct {
	inner cc.Backend
	ch    *netlink.Channel
	eng   *netsim.Engine
}

func (b *sampledBackend) Query(state []float64, reply func(action float64)) {
	b.inner.Query(state, func(a float64) {
		b.ch.Push(core.EncodeSample(core.Sample{
			Input: append([]float64(nil), state...),
			Aux:   []float64{a},
			At:    b.eng.Now(),
		}))
		reply(a)
	})
}

// bell is one scheme's dumbbell and its flows.
type bell struct {
	scheme    string
	d         *topo.Dumbbell
	udp       *tcp.UDPSource
	senders   []*tcp.Sender
	delivered []int64
}

type dumbbellInst struct {
	eng    *netsim.Engine
	dur    netsim.Time
	bells  []*bell
	ctrls  []*cc.MIController
	lf     *core.Core
	ch     *netlink.Channel
	svc    *core.Service
	checks []check
}

func setupDumbbell(seed int64, tiny bool, t *tracer) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &dumbbellInst{dur: 300 * netsim.Millisecond}
	if tiny {
		in.dur = 60 * netsim.Millisecond
	}
	in.eng = netsim.NewEngine()
	costs := ksim.DefaultCosts()

	// The policy is a fixed input, not drawn from the seed: a different
	// policy per seed would change how much traffic the Aurora flows send,
	// and with it the work a repetition measures.
	net := cc.NewAuroraNet(1)
	cc.Pretrain(net, dbPretrain, 1)
	policy := cc.NewNNPolicy(net)
	cfg := core.DefaultConfig()

	flows := dbFlows(tiny)
	for k, scheme := range ccSchemes {
		b := &bell{scheme: scheme, d: topo.BuildDumbbell(in.eng, topo.TestbedOpts(1))}
		b.d.ProvisionCPUs(4, costs)
		sender, receiver := b.d.Senders[0], b.d.Receivers[0]
		b.udp = tcp.NewUDPSource(b.d.UDPHost, 9999, receiver.ID, 100e6)
		if scheme == "lf_aurora" {
			in.lf = core.NewCore(in.eng, sender.CPU, costs, cfg)
			mod, err := codegen.Build(quant.Quantize(net, cfg.Quant), "model")
			if err != nil {
				return nil, err
			}
			if _, err := in.lf.RegisterModel(mod); err != nil {
				return nil, err
			}
			in.ch = netlink.NewChannel(in.eng, sender.CPU, costs, nil)
			user := &driftUser{net: net.Clone(), every: dbDriftStep, sign: 1}
			f, e, a := wrapUser(user, user, user, t)
			in.svc = core.NewSlowPath(in.lf, in.ch, f, e, a)
			wrapDeliver(in.ch, in.svc.HandleBatch, t)
			in.svc.Start(dbBatch)
		}
		for i := 0; i < flows[k]; i++ {
			flow := netsim.FlowID(i + 1)
			var ctl tcp.CongestionControl
			switch scheme {
			case "bbr":
				ctl = cc.NewBBR()
			case "lf_aurora":
				var be cc.Backend = core.NewFlowBackend(in.lf, flow)
				be = &sampledBackend{inner: wrapBackend(be, "core", t), ch: in.ch, eng: in.eng}
				m := cc.NewMIController(in.eng, be, 500e6)
				in.ctrls = append(in.ctrls, m)
				ctl = m
			case "ccp_aurora":
				var be cc.Backend = &cc.CCPBackend{Eng: in.eng, CPU: sender.CPU, Costs: costs,
					Policy: policy, Interval: netsim.Millisecond, UserMACs: net.MACs()}
				wb := wrapBackend(be, "ccp", t)
				if t != nil {
					if err := checkPreserved(be, wb); err != nil {
						in.checks = append(in.checks, checkf(false, "wrapper-interfaces", "%v", err))
					}
				}
				m := cc.NewMIController(in.eng, wb, 500e6)
				in.ctrls = append(in.ctrls, m)
				ctl = m
			}
			s := tcp.NewSender(sender, flow, receiver.ID, 0, wrapCC(ctl, scheme, t))
			rcv := tcp.NewReceiver(receiver, flow, sender.ID)
			b.delivered = append(b.delivered, 0)
			rcv.OnDeliver = func(n int, _ netsim.Time) { b.delivered[i] += int64(n) }
			b.senders = append(b.senders, s)
			at := netsim.Time(rng.Int63n(int64(dbJitter)))
			if scheme == "bbr" {
				// BBR flows start on a fixed stagger: which loss regime
				// they settle into on the shared bottleneck depends
				// chaotically on their start order, and so does the cost
				// of BBR's per-ACK path (its bandwidth filter scans every
				// sample in its window), which moved a repetition's time
				// by ±17% across seeds.
				at = netsim.Time(i) * dbJitter / netsim.Time(flows[k])
			}
			in.eng.At(at, s.Start)
		}
		b.udp.Start()
		in.bells = append(in.bells, b)
	}
	return in, nil
}

func (in *dumbbellInst) run(t *tracer) {
	advance(in.eng, in.dur, t)
}

func (in *dumbbellInst) finish(t *tracer) outcome {
	var b strings.Builder
	var total, rtx, tmo, drops int64
	checks := append([]check(nil), in.checks...)
	var cpus []*ksim.CPU
	for _, bl := range in.bells {
		var sum int64
		for i, s := range bl.senders {
			fmt.Fprintf(&b, "%s flow %d: %d bytes, %d rtx, %d timeouts\n",
				bl.scheme, i+1, bl.delivered[i], s.Retransmits, s.Timeouts)
			sum += bl.delivered[i]
			rtx += s.Retransmits
			tmo += s.Timeouts
			checks = append(checks, checkf(bl.delivered[i] > 0, fmt.Sprintf("%s-flow-%d-delivers", bl.scheme, i+1),
				"delivered %d bytes", bl.delivered[i]))
		}
		total += sum
		limit := bl.d.Bottleneck.Rate() / 8 * int64(in.dur) / int64(netsim.Second)
		checks = append(checks, checkf(sum <= limit, bl.scheme+"-goodput-under-bottleneck",
			"delivered %d bytes, bottleneck carries at most %d", sum, limit))
		dr := queueDrops(bl.d.Bottleneck)
		drops += dr
		fmt.Fprintf(&b, "%s bottleneck: %d drops; sender cpu %s\n", bl.scheme, dr, bl.d.Senders[0].CPU.Report())
		cpus = append(cpus, bl.d.Senders[0].CPU, bl.d.Receivers[0].CPU, bl.d.UDPHost.CPU)
	}
	cs, ss, ns := in.lf.Stats(), in.svc.Stats(), in.ch.Stats()
	checks = append(checks, checkf(ss.Updates >= 1, "slow-path-updates",
		"%d snapshots installed by the adapting slow path", ss.Updates))
	fmt.Fprintf(&b, "core: %d queries, %d hits, %d switches, %d installs\n", cs.Queries, cs.CacheHits, cs.Switches, cs.Installs)
	fmt.Fprintf(&b, "service: %d batches, %d samples, %d checks, %d skipped, %d updates\n",
		ss.Batches, ss.Samples, ss.FidelityChecks, ss.SkippedByNecessity, ss.Updates)
	fmt.Fprintf(&b, "netlink: %d flushes, %d messages, %d dropped\n", ns.Flushes, ns.Messages, ns.Dropped)

	if t != nil {
		t.ccValues(ccSchemes...)
		acks := 0.0
		for _, s := range ccSchemes {
			acks += t.calls("cc." + s + ".on_ack")
		}
		t.set("netsim.queue_drops", float64(drops))
		t.set("tcp.acks", acks)
		t.set("tcp.retransmits", float64(rtx))
		t.set("tcp.timeouts", float64(tmo))
		t.set("tcp.goodput_frac", float64(total)/float64(total+rtx*netsim.MSS))
		t.nnValues()
		queryValues(t, cs)
		t.set("core.service.batches", float64(ss.Batches))
		t.set("core.service.updates", float64(ss.Updates))
		t.set("codegen.builds", float64(ss.Updates+ss.BuildFailures))
		netlinkValues(t, ns)
		cpuValues(t, cpus)
	}
	return outcome{report: b.String(), checks: checks}
}

// queueDrops reads a link queue's drop counter when its discipline keeps one.
func queueDrops(l *netsim.Link) int64 {
	if q, ok := l.Queue().(interface{ Drops() int }); ok {
		return int64(q.Drops())
	}
	return 0
}

// queryValues records the query-path metrics: counts from the core's Stats
// view, host time from the "core.query" aggregate of the calls the
// benchmark wrapped.
func queryValues(t *tracer, st core.Stats) {
	t.set("core.queries", float64(st.Queries))
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		t.set("core.cache_hit_ratio", float64(st.CacheHits)/float64(n))
	}
	t.set("core.sweep_scan", float64(st.SweepScans))
	t.set("core.blocked_queries", float64(st.BlockedQueries))
	t.set("core.snapshot_switches", float64(st.Switches))
	t.set("core.snapshot_unloads", float64(st.Unloads))
	a := t.aggs["core.query"]
	if a == nil || a.n == 0 {
		return
	}
	t.set("core.query_s", float64(a.total)/1e9)
	t.set("query_qps", float64(a.n)/(float64(a.total)/1e9))
	t.set("query_p50_ns", a.hist.quantile(0.50))
	t.set("query_p99_ns", a.hist.quantile(0.99))
}

func netlinkValues(t *tracer, st netlink.Stats) {
	t.set("netlink.messages", float64(st.Messages))
	t.set("netlink.flushes", float64(st.Flushes))
	if st.Flushes > 0 {
		t.set("netlink.msgs_per_flush", float64(st.Messages)/float64(st.Flushes))
	}
	t.set("netlink.dropped", float64(st.Dropped))
	t.set("netlink.deliver_s", t.seconds("netlink.deliver"))
}

func cpuValues(t *tracer, cpus []*ksim.CPU) {
	var soft, sys netsim.Time
	var rej int64
	for _, c := range cpus {
		soft += c.BusyTime(ksim.SoftIRQ)
		sys += c.BusyTime(ksim.Kernel)
		rej += c.Rejected()
	}
	t.set("ksim.softirq_busy_ms", float64(soft)/1e6)
	t.set("ksim.sys_busy_ms", float64(sys)/1e6)
	t.set("ksim.rejected", float64(rej))
}
