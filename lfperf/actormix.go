package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/liteflow-sim/liteflow/internal/scenario"
)

// actorMix is a scenario shaped like the corpus's mixed-enterprise: web,
// video, RPC fan-out and bulk sessions with Poisson arrivals, an incast
// burst and churned mice, played by scenario.Run on the partitioned engine
// at two domains. LiteFlow's core and slow path do no work here.
var actorMix = workload{name: "actor-mix", setup: setupActorMix}

// amDomains is the partitioned engine's worker count: the 2 CPUs of the
// reference machine.
const amDomains = 2

// actorSpec generates the scenario from the seed. Population sizes, think
// times and object sizes are fixed so every seed asks for about the same
// amount of work (web responses are a fixed 100 KB rather than the
// heavy-tailed web-search sizes, whose few largest objects would set a
// repetition's byte count); the seed draws the scenario seed (session seeds, arrival
// positions, server placement, mice endpoints) and the incast time.
func actorSpec(seed int64, tiny bool) scenario.Spec {
	rng := rand.New(rand.NewSource(seed))
	dur := 150.0
	web, video, rpc, bulk, mice := 64, 24, 24, 8, 200
	if tiny {
		dur = 20
		web, video, rpc, bulk, mice = 4, 2, 2, 1, 10
	}
	return scenario.Spec{
		Name:       fmt.Sprintf("actor-mix-seed%d", seed),
		Fabric:     scenario.FabricSpec{Profile: "dc", HostsPerLeaf: 4},
		DurationMs: dur,
		Seed:       rng.Uint64(),
		Actors: []scenario.ActorGroup{
			{Class: "web", Count: web, ThinkMs: 5, RespDist: "fixed", RespBytes: 100000},
			{Class: "video", Count: video, ChunkMs: 50},
			{Class: "rpc", Count: rpc, ThinkMs: 10, Fanout: 3, RespBytes: 10000},
			{Class: "bulk", Count: bulk, ThinkMs: 20, RespBytes: 500000},
		},
		Arrival: scenario.ArrivalSpec{Process: "poisson", RampMs: dur / 5},
		Events: []scenario.EventSpec{
			{Kind: "incast-burst", AtMs: (0.4 + 0.2*rng.Float64()) * dur},
		},
		Churn: &scenario.ChurnSpec{Flows: mice, RatePerSec: float64(mice) / (dur / 1e3), MeanLifeMs: dur / 10, FinFrac: 0.5},
		Envelope: scenario.Envelope{
			MinGoodputMbps: 1000,
			MaxP99LatMs:    dur,
			MinResponses:   int64(4 * (web + video + rpc)),
		},
	}
}

type actorInst struct {
	spec   *scenario.Spec
	report *scenario.Report
	err    error
}

// setupActorMix generates the spec, round-trips it through scenario.Parse
// (the path a user's JSON file takes), and then plays the same population
// for 1 µs of virtual time: scenario.Run builds its fabric and sessions
// internally, so this truncated run is how the benchmark times that set-up.
func setupActorMix(seed int64, tiny bool, _ *tracer) (instance, error) {
	data, err := json.Marshal(actorSpec(seed, tiny))
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	probe := *spec
	probe.DurationMs = 0.001
	probe.Arrival.RampMs = 0
	probe.Events = nil
	if _, err := scenario.Run(&probe, scenario.RunOpts{Domains: amDomains}); err != nil {
		return nil, err
	}
	return &actorInst{spec: spec}, nil
}

// run plays the scenario. Everything happens inside scenario.Run, so in a
// traced run the whole call is engine time: no seam inside it is wrapped.
func (in *actorInst) run(t *tracer) {
	play := func() { in.report, in.err = scenario.Run(in.spec, scenario.RunOpts{Domains: amDomains}) }
	if t == nil {
		play()
		return
	}
	t.runSpan(play)
}

func (in *actorInst) finish(t *tracer) outcome {
	if in.err != nil {
		return outcome{report: in.err.Error(), checks: []check{checkf(false, "scenario-run", "%v", in.err)}}
	}
	r := in.report
	checks := []check{
		checkf(r.EnvelopeChecked, "envelope-checked", "envelope applies at natural scale"),
		checkf(len(r.Violations) == 0, "envelope", "violations: %v", r.Violations),
	}
	if t != nil {
		t.set("actor.requests", float64(r.Total.Requests))
		t.set("actor.responses", float64(r.Total.Responses))
		if r.Total.Requests > 0 {
			t.set("actor.response_frac", float64(r.Total.Responses)/float64(r.Total.Requests))
		}
		t.set("scenario.flows", float64(r.Flows+r.ChurnFlows))
	}
	return outcome{report: r.String(), ops: r.Total.Requests, checks: checks}
}
