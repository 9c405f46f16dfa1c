package main

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/fleet"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netlink"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/obs"
	"github.com/liteflow-sim/liteflow/internal/opt"
	"github.com/liteflow-sim/liteflow/internal/topo"
)

// fleetRollout is one fleet.Controller serving the 8 hosts of a spine–leaf
// fabric, with canary gating and a flight recorder, under a drifting model.
// The benchmark drives every member's query and sample stream. The slow
// path dominates: adapt, gates, quantize, codegen, wave installs and canary
// verdicts, with the query path reading beside those writes.
var fleetRollout = workload{name: "fleet-rollout", slice: frAgg, setup: setupFleet}

const (
	frAgg        = 2 * netsim.Millisecond // batch and aggregation interval
	frDriftEvery = 6                      // aggregation rounds between drifts
	frQueryEvery = frAgg / 8              // mean member query gap
)

type fleetInst struct {
	eng     *netsim.Engine
	fabric  *topo.SpineLeaf
	ctrl    *fleet.Controller
	user    *driftUser
	dur     netsim.Time
	end     netsim.Time
	queries int64
	qerrs   int64
}

func setupFleet(seed int64, tiny bool, t *tracer) (instance, error) {
	in := &fleetInst{dur: 240 * netsim.Millisecond}
	if tiny {
		in.dur = 40 * netsim.Millisecond
	}
	in.end = 2 * in.dur
	// The canary verdict reads member health from a flight recorder, so the
	// workload carries a registry in every run, traced or not.
	reg := obs.NewRegistry()
	sc := obs.New(reg, nil)
	flight := obs.NewFlightRecorder(0)

	in.eng = netsim.NewEngine()
	in.fabric = topo.BuildSpineLeaf(in.eng, topo.DefaultSpineLeafOpts(4), opt.WithScope(sc))
	in.fabric.ProvisionCPUs(4, ksim.DefaultCosts(), opt.WithScope(sc))
	in.user = &driftUser{
		net:   nn.New([]int{4, 8, 1}, []nn.Activation{nn.Tanh, nn.Linear}, 1),
		every: frDriftEvery,
		sign:  1,
	}
	f, e, a := wrapUser(in.user, in.user, in.user, t)
	spec := topo.FleetSpec{
		Costs: ksim.DefaultCosts(),
		Core:  core.DefaultConfig(),
		Fleet: fleet.Config{
			BatchInterval:         frAgg,
			AggregationInterval:   frAgg,
			MaxConcurrentInstalls: 2,
			CanaryCount:           1,
			CanaryWindow:          4 * frAgg,
			Flight:                flight,
		},
		CoreOptions: func(int) []opt.Option {
			return []opt.Option{opt.WithWatchdog(opt.Watchdog{Window: int64(4 * frAgg)})}
		},
	}
	in.ctrl = in.fabric.ProvisionFleet(spec, f, e, a, opt.WithScope(sc))
	if err := in.ctrl.Start(); err != nil {
		return nil, err
	}

	// Member streams: each member queries its core with seeded inputs at a
	// seeded cadence and mirrors every query into its sample batch. The
	// cadence jitters by ±5% only: the canary verdict compares a member's
	// query rate across short windows, and a burstier stream would fail
	// healthy epochs.
	var qa *agg
	if t != nil {
		qa = t.histAgg("core.query")
	}
	for i, m := range in.ctrl.Members() {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
		x := make([]int64, 4)
		out := make([]int64, 1)
		flow := netsim.FlowID(i + 1)
		var tick func()
		tick = func() {
			sample := core.Sample{Input: make([]float64, 4), At: in.eng.Now()}
			for k := range x {
				sample.Input[k] = rng.Float64()*2 - 1
				x[k] = int64(sample.Input[k] * 100)
			}
			var err error
			if t != nil {
				s := t.begin()
				err = m.Core.QueryModel(flow, x, out)
				t.end(qa, s)
			} else {
				err = m.Core.QueryModel(flow, x, out)
			}
			in.queries++
			if err != nil {
				in.qerrs++
			}
			m.Chan.Push(core.EncodeSample(sample))
			if in.eng.Now() < in.end {
				in.eng.After(jitter(rng, frQueryEvery), tick)
			}
		}
		in.eng.After(netsim.Time(rng.Int63n(int64(frQueryEvery))), tick)
	}

	// Flight recorder tick for the canary verdicts.
	var flightTick func()
	flightTick = func() {
		flight.Sample(reg, int64(in.eng.Now()))
		if in.eng.Now() < in.end {
			in.eng.After(frAgg/2, flightTick)
		}
	}
	in.eng.After(frAgg/2, flightTick)
	in.eng.At(in.dur, func() { in.user.every = 0 })
	return in, nil
}

// jitter draws a gap uniformly within ±5% of mean.
func jitter(rng *rand.Rand, mean netsim.Time) netsim.Time {
	return mean - mean/20 + netsim.Time(rng.Int63n(int64(mean/10)))
}

// run plays the drift window, then the recovery tail until the last minted
// epoch is released and every member holds it (or the tail ends).
func (in *fleetInst) run(t *tracer) {
	advance(in.eng, in.dur, t)
	for in.eng.Now() < in.end && (in.ctrl.StaleMembers() > 0 || in.ctrl.Released() != in.ctrl.Epoch()) {
		advance(in.eng, in.eng.Now()+frAgg, t)
	}
	in.ctrl.Stop()
	for _, m := range in.ctrl.Members() {
		m.Core.StopSweeper()
	}
}

func (in *fleetInst) finish(t *tracer) outcome {
	st := in.ctrl.Stats()
	rel := in.ctrl.Released()
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: epoch %d released %d, %d aggregations, %d versions, %d installs (%d deferred, %d parked)\n",
		st.Epoch, rel, st.Aggregations, st.VersionsBuilt, st.MemberInstalls, st.InstallsDeferred, st.InstallsParked)
	fmt.Fprintf(&b, "canary: %d passes, %d fails, %d rollbacks, blacklist %v\n",
		st.CanaryPasses, st.CanaryFails, st.Rollbacks, in.ctrl.Blacklisted())
	fmt.Fprintf(&b, "member epochs %v, %d queries, %d query errors\n", in.ctrl.MemberEpochs(), in.queries, in.qerrs)
	checks := []check{
		checkf(rel >= 2, "epochs-released", "released epoch %d (the drift must mint and release at least one)", rel),
		checkf(len(in.ctrl.Blacklisted()) == 0, "no-blacklist", "blacklisted epochs %v on a healthy drift", in.ctrl.Blacklisted()),
	}
	var cs core.Stats
	var ns netlink.Stats
	var cpus []*ksim.CPU
	for i, m := range in.ctrl.Members() {
		if !m.Pinned() {
			checks = append(checks, checkf(m.Epoch() == rel, fmt.Sprintf("member-%d-converged", i),
				"member epoch %d, released %d", m.Epoch(), rel))
		}
		s := m.Core.Stats()
		cs.Queries += s.Queries
		cs.CacheHits += s.CacheHits
		cs.CacheMisses += s.CacheMisses
		cs.SweepScans += s.SweepScans
		cs.BlockedQueries += s.BlockedQueries
		cs.Switches += s.Switches
		cs.Unloads += s.Unloads
		c := m.Chan.Stats()
		ns.Messages += c.Messages
		ns.Flushes += c.Flushes
		ns.Dropped += c.Dropped
		cpus = append(cpus, in.fabric.Hosts[i].CPU)
	}
	fmt.Fprintf(&b, "members: %d queries, %d switches, %d unloads; netlink %d messages in %d flushes\n",
		cs.Queries, cs.Switches, cs.Unloads, ns.Messages, ns.Flushes)
	if t != nil {
		t.nnValues()
		queryValues(t, cs)
		netlinkValues(t, ns)
		cpuValues(t, cpus)
		t.set("fleet.aggregations", float64(st.Aggregations))
		t.set("fleet.versions", float64(st.VersionsBuilt))
		t.set("fleet.member_installs", float64(st.MemberInstalls))
		t.set("fleet.installs_deferred", float64(st.InstallsDeferred))
		t.set("fleet.canary_pass", float64(st.CanaryPasses))
		t.set("fleet.rollbacks", float64(st.Rollbacks))
		t.set("codegen.builds", float64(st.VersionsBuilt+st.BuildFailures))
	}
	return outcome{report: b.String(), ops: in.queries, opFailed: in.qerrs, checks: checks}
}
