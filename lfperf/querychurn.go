package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/codegen"
	"github.com/liteflow-sim/liteflow/internal/core"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
	"github.com/liteflow-sim/liteflow/internal/nn"
	"github.com/liteflow-sim/liteflow/internal/quant"
)

// queryChurn is the library fast path with no network: one caller queries
// Core.QueryModel in a closed loop over a large resident population of
// Aurora-shaped flows with Zipf popularity, new flows keep arriving, the
// engine advances so the sweeper expires idle ones, and every so many
// queries the benchmark swaps in a new snapshot (quantize, build, register,
// activate).
var queryChurn = workload{name: "query-churn", setup: setupQueryChurn}

const (
	qcInputs    = 1024                    // distinct state vectors
	qcStep      = 1000                    // queries per engine advance
	qcStepTime  = netsim.Millisecond      // virtual time per engine advance
	qcTimeout   = 20 * netsim.Millisecond // flow-cache idle timeout
	qcArrivalIn = 20                      // one query in qcArrivalIn is a new flow
	qcZipfS     = 1.1
)

type qcSize struct{ resident, queries, swapEvery int }

func qcSizes(tiny bool) qcSize {
	if tiny {
		return qcSize{resident: 2000, queries: 20000, swapEvery: 5000}
	}
	return qcSize{resident: 50000, queries: 300000, swapEvery: 30000}
}

// arrival records one new flow's first query for the post-run check.
type arrival struct {
	input int
	prog  *quant.Program
	out   int64
}

type churnInst struct {
	eng      *netsim.Engine
	lf       *core.Core
	net      *nn.Network
	qcfg     quant.Config
	inputs   [][]int64
	seq      []netsim.FlowID // the query sequence
	newFlow  []bool          // seq[i] is a new flow's first query
	swapAt   []int           // query indices before which a swap happens
	swaps    int
	swapNS   []float64
	errs     int64
	arrivals []arrival
}

func setupQueryChurn(seed int64, tiny bool, t *tracer) (instance, error) {
	sz := qcSizes(tiny)
	rng := rand.New(rand.NewSource(seed))
	in := &churnInst{}
	in.eng = netsim.NewEngine()
	cfg := core.DefaultConfig()
	cfg.FlowCacheTimeout = qcTimeout
	in.qcfg = cfg.Quant
	in.lf = core.NewCore(in.eng, ksim.NewHostCPU(in.eng, 4), ksim.DefaultCosts(), cfg)

	// A fixed pretrained policy: the snapshot's shape and cost are the same
	// for every seed.
	in.net = cc.NewAuroraNet(1)
	cc.Pretrain(in.net, dbPretrain, 1)
	prog := quant.Quantize(in.net, in.qcfg)
	mod, err := codegen.Build(prog, "churn_0")
	if err != nil {
		return nil, err
	}
	if _, err := in.lf.RegisterModel(mod); err != nil {
		return nil, err
	}

	in.inputs = make([][]int64, qcInputs)
	for i := range in.inputs {
		in.inputs[i] = prog.QuantizeInput(cc.RandomState(rng), nil)
	}

	// Popularity: Zipf ranks mapped onto resident flows by a seeded
	// permutation. Arrivals take fresh flow IDs above the resident block.
	perm := rng.Perm(sz.resident)
	zipf := rand.NewZipf(rng, qcZipfS, 1, uint64(sz.resident-1))
	in.seq = make([]netsim.FlowID, sz.queries)
	in.newFlow = make([]bool, sz.queries)
	next := netsim.FlowID(sz.resident + 1)
	for i := range in.seq {
		if rng.Intn(qcArrivalIn) == 0 {
			in.seq[i] = next
			in.newFlow[i] = true
			next++
			continue
		}
		in.seq[i] = netsim.FlowID(perm[zipf.Uint64()] + 1)
	}
	// Swap schedule: every swapEvery queries, each point jittered by up to
	// a tenth of the period.
	for at := sz.swapEvery; at < sz.queries; at += sz.swapEvery {
		in.swapAt = append(in.swapAt, at+rng.Intn(sz.swapEvery/5)-sz.swapEvery/10)
	}

	// Populate the resident flows: each is queried once, so the cache
	// starts full and pinned to the initial snapshot.
	out := make([]int64, 1)
	for f := 1; f <= sz.resident; f++ {
		if err := in.lf.QueryModel(netsim.FlowID(f), in.inputs[f%qcInputs], out); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// swap builds and activates the next snapshot from a drifted policy.
func (in *churnInst) swap(t *tracer) error {
	in.swaps++
	outL := in.net.Layers[len(in.net.Layers)-1]
	outL.B[0] += 0.01 * float64(in.swaps%7-3)
	var prog *quant.Program
	var mod *codegen.Module
	var err error
	t.timeSpan("quant.quantize", func() { prog = quant.Quantize(in.net, in.qcfg) })
	t.timeSpan("codegen.build", func() { mod, err = codegen.Build(prog, fmt.Sprintf("churn_%d", in.swaps)) })
	if err != nil {
		return err
	}
	t.timeSpan("core.register", func() { _, err = in.lf.RegisterModel(mod) })
	if err != nil {
		return err
	}
	t.timeSpan("core.activate", func() { err = in.lf.Activate() })
	return err
}

func (in *churnInst) run(t *tracer) {
	out := make([]int64, 1)
	var qa *agg
	if t != nil {
		qa = t.histAgg("core.query")
	}
	swapIdx := 0
	for i, f := range in.seq {
		if i%qcStep == 0 && i > 0 {
			advance(in.eng, in.eng.Now()+qcStepTime, t)
		}
		if swapIdx < len(in.swapAt) && i == in.swapAt[swapIdx] {
			swapIdx++
			var err error
			d := t.timeSpan("swap", func() { err = in.swap(t) })
			if t != nil {
				in.swapNS = append(in.swapNS, float64(d))
			}
			if err != nil {
				in.errs++
			}
		}
		x := int(f) % qcInputs
		var err error
		if t != nil {
			s := t.begin()
			err = in.lf.QueryModel(f, in.inputs[x], out)
			t.end(qa, s)
		} else {
			err = in.lf.QueryModel(f, in.inputs[x], out)
		}
		if err != nil {
			in.errs++
			continue
		}
		if in.newFlow[i] {
			// A new flow is pinned to the snapshot active when it first
			// queries; record both for the bit-exact check after the run.
			in.arrivals = append(in.arrivals, arrival{input: x, prog: in.lf.Active().Program(), out: out[0]})
		}
	}
	in.lf.StopSweeper()
}

func (in *churnInst) finish(t *tracer) outcome {
	ref := make([]int64, 1)
	var mismatches int64
	var h uint64
	for _, a := range in.arrivals {
		a.prog.Infer(in.inputs[a.input], ref)
		if ref[0] != a.out {
			mismatches++
		}
		h = h*1099511628211 + uint64(a.out)
	}
	st := in.lf.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "queries %d, hits %d, misses %d, swept %d, switches %d, unloads %d, models %d\n",
		st.Queries, st.CacheHits, st.CacheMisses, st.SweptEntries, st.Switches, st.Unloads, in.lf.Models())
	fmt.Fprintf(&b, "%d swaps, %d arrivals, arrival-output hash %016x\n", in.swaps, len(in.arrivals), h)
	checks := []check{
		checkf(mismatches == 0, "query-output-bit-exact",
			"%d of %d new-flow outputs differ from their snapshot's Program.Infer", mismatches, len(in.arrivals)),
		checkf(in.swaps == len(in.swapAt), "swaps", "%d of %d scheduled swaps ran", in.swaps, len(in.swapAt)),
	}
	if t != nil {
		queryValues(t, st)
		t.set("codegen.builds", t.calls("codegen.build"))
		t.set("quant.quantize_s", t.seconds("quant.quantize"))
		t.set("codegen.build_s", t.seconds("codegen.build"))
		t.set("core.register_s", t.seconds("core.register"))
		if len(in.swapNS) > 0 {
			s := append([]float64(nil), in.swapNS...)
			sort.Float64s(s)
			t.set("swap_p50_ms", quantileSorted(s, 0.5)/1e6)
			t.set("swap_p90_ms", quantileSorted(s, 0.9)/1e6)
		}
	}
	ops := int64(len(in.seq) + len(in.swapAt))
	return outcome{report: b.String(), ops: ops, opFailed: in.errs + mismatches, checks: checks}
}

// quantileSorted returns the q-quantile of sorted values by linear
// interpolation between closest ranks.
func quantileSorted(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
