package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/cc"
	"github.com/liteflow-sim/liteflow/internal/ksim"
	"github.com/liteflow-sim/liteflow/internal/netsim"
)

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloadsReportEveryMetric runs every workload at its tiny size, on
// the seed used while building the benchmark and on a held-out one,
// untraced and traced. Each run must pass its output checks (a traced
// report digest that differs from the untraced one is a failed check) and
// print every metric BENCHMARK.json names, with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	b := loadBenchFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for _, seed := range []int64{1, 7} {
			for _, traced := range []bool{false, true} {
				res, err := run(options{workload: w.Name, seed: seed, tiny: true, trace: traced}, io.Discard)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", w.Name, seed, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d trace %v: correct %v, %d of %d failed", w.Name, seed, traced, res.Correct, res.Failed, res.Attempted)
				}
				want := b.EndToEnd
				if traced {
					want = b.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace %v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s trace %v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
					}
				}
			}
		}
	}
}

// dropAckObserver is a deliberately broken backend wrapper: it forwards
// Query but hides cc.AckObserver from the controller's type assertion.
type dropAckObserver struct{ inner cc.Backend }

func (d dropAckObserver) Query(state []float64, reply func(float64)) { d.inner.Query(state, reply) }

func TestWrapperPreservesAckObserver(t *testing.T) {
	eng := netsim.NewEngine()
	ccp := &cc.CCPBackend{Eng: eng, Costs: ksim.DefaultCosts(), Policy: cc.TeacherPolicy{}}
	tr := newTracer(0)
	if err := checkPreserved(ccp, wrapBackend(ccp, "ccp", tr)); err != nil {
		t.Errorf("traced wrapper: %v", err)
	}
	if err := checkPreserved(ccp, dropAckObserver{ccp}); err == nil {
		t.Error("a wrapper that drops cc.AckObserver was not caught")
	}
	direct := &cc.DirectBackend{}
	if _, ok := wrapBackend(direct, "direct", tr).(cc.AckObserver); ok {
		t.Error("wrapping a backend without cc.AckObserver must not add it")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for ns := int64(1); ns <= 10000; ns++ {
		h.add(ns)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 10000
		if got := h.quantile(q); got > want || got < want*15/16 {
			t.Errorf("quantile(%g) = %g, want within 1/16 below %g", q, got, want)
		}
	}
}
