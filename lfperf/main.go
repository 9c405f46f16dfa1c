// Command lfperf is the repository's benchmark: it builds one seeded
// workload from the simulator's public layers, measures it for a fixed
// host-time budget, checks its outputs, and prints one JSON result line.
//
//	lfperf --workload dumbbell-cc --seed 1 --seconds 10 --trace 0
//
// Each repetition sets the workload up from scratch (timed as setup_s) and
// runs its fixed amount of simulated work (timed as wall_s and cpu_s), with
// every time scaled to the reference host speed (calib.go). Repetitions
// continue until the budget is spent; the result reports medians. With --trace 1 the even repetitions run untraced and the odd ones
// run with wrappers around the layer seams, and the result carries the
// per-layer metrics instead of the end-to-end ones. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one named benchmark input. setup builds a fresh instance from
// the seed; tiny selects the reduced size the package tests use.
type workload struct {
	name  string
	slice int64 // virtual-time slice for traced engine runs, ns
	setup func(seed int64, tiny bool, t *tracer) (instance, error)
}

// instance is one set-up workload, ready to run once.
type instance interface {
	// run executes the timed part.
	run(t *tracer)
	// finish reads the run's results, untimed. When t is non-nil it also
	// records the per-layer counts into it.
	finish(t *tracer) outcome
}

// outcome is what one run produced.
type outcome struct {
	report   string  // deterministic report; its digest is printed
	ops      int64   // workload operations attempted
	opFailed int64   // workload operations that failed
	checks   []check // output checks
}

type check struct {
	name   string
	ok     bool
	detail string
}

func checkf(ok bool, name, format string, args ...any) check {
	return check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)}
}

var workloads = []workload{dumbbellCC, actorMix, fleetRollout, queryChurn}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec names one reported metric.
type metricSpec struct {
	name, unit string
}

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// ccSchemes are the controllers the dumbbell runs, as they appear in
// per-layer metric names.
var ccSchemes = []string{"bbr", "lf_aurora", "ccp_aurora"}

func perLayerSpecs() []metricSpec {
	var m []metricSpec
	for _, s := range ccSchemes {
		p := "cc." + s + "."
		m = append(m, metricSpec{p + "on_ack_s", "s"}, metricSpec{p + "ns_per_ack", "ns"},
			metricSpec{p + "cwnd_calls", "count"}, metricSpec{p + "cwnd_s", "s"},
			metricSpec{p + "pacing_calls", "count"})
	}
	m = append(m,
		metricSpec{"netsim.run_self_s", "s"},
		metricSpec{"netsim.pending_max", "count"},
		metricSpec{"netsim.queue_drops", "count"},
		metricSpec{"netsim.parallelism", "ratio"},
		metricSpec{"tcp.acks", "count"},
		metricSpec{"tcp.retransmits", "count"},
		metricSpec{"tcp.timeouts", "count"},
		metricSpec{"tcp.goodput_frac", "ratio"},
		metricSpec{"actor.requests", "count"},
		metricSpec{"actor.responses", "count"},
		metricSpec{"actor.response_frac", "ratio"},
		metricSpec{"scenario.flows", "count"},
		metricSpec{"nn.adapt_s", "s"},
		metricSpec{"nn.adapt_calls", "count"},
		metricSpec{"nn.infer_s", "s"},
		metricSpec{"nn.infer_calls", "count"},
		metricSpec{"nn.freeze_s", "s"},
		metricSpec{"nn.freeze_calls", "count"},
		metricSpec{"core.service.batches", "count"},
		metricSpec{"core.service.updates", "count"},
		metricSpec{"fleet.aggregations", "count"},
		metricSpec{"fleet.versions", "count"},
		metricSpec{"fleet.member_installs", "count"},
		metricSpec{"fleet.installs_deferred", "count"},
		metricSpec{"fleet.canary_pass", "count"},
		metricSpec{"fleet.rollbacks", "count"},
		metricSpec{"core.queries", "count"},
		metricSpec{"core.query_s", "s"},
		metricSpec{"query_qps", "1/s"},
		metricSpec{"query_p50_ns", "ns"},
		metricSpec{"query_p99_ns", "ns"},
		metricSpec{"core.cache_hit_ratio", "ratio"},
		metricSpec{"core.sweep_scan", "count"},
		metricSpec{"core.blocked_queries", "count"},
		metricSpec{"core.snapshot_switches", "count"},
		metricSpec{"core.snapshot_unloads", "count"},
		metricSpec{"swap_p50_ms", "ms"},
		metricSpec{"swap_p90_ms", "ms"},
		metricSpec{"quant.quantize_s", "s"},
		metricSpec{"codegen.build_s", "s"},
		metricSpec{"codegen.builds", "count"},
		metricSpec{"core.register_s", "s"},
		metricSpec{"netlink.messages", "count"},
		metricSpec{"netlink.flushes", "count"},
		metricSpec{"netlink.msgs_per_flush", "ratio"},
		metricSpec{"netlink.dropped", "count"},
		metricSpec{"netlink.deliver_s", "s"},
		metricSpec{"ksim.softirq_busy_ms", "ms"},
		metricSpec{"ksim.sys_busy_ms", "ms"},
		metricSpec{"ksim.rejected", "count"},
		metricSpec{"runtime.alloc_mb", "MB"},
		metricSpec{"runtime.mallocs", "count"},
		metricSpec{"runtime.gc_cycles", "count"},
		metricSpec{"runtime.gc_pause_ms", "ms"},
		metricSpec{"runtime.heap_peak_mb", "MB"},
		metricSpec{"trace.overhead", "ratio"},
		metricSpec{"host.speed", "ratio"},
	)
	return m
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	spansOut string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: dumbbell-cc | actor-mix | fleet-rollout | query-churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input is drawn from")
	flag.Float64Var(&o.seconds, "seconds", 10, "host-time budget for the measured repetitions")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.spansOut, "spans-out", "", "traced run: append every recorded span to this file as JSON lines")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "lfperf: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minReps is the fewest repetitions of each kind a run makes, whatever the
// budget, so every median has samples on both sides.
const minReps = 3

// run executes the repetitions and assembles the result. Informational
// lines (environment stamp, digest, failed checks, metric table) go to out.
func run(o options, out io.Writer) (result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	fmt.Fprintf(out, "env %s\n", envStamp(o))

	var (
		setups, walls, cpus []float64
		peaks, speeds       []float64
		tracedWalls         []float64
		layer               = map[string][]float64{}
		digest              string
		attempted, failed   int64
		failedChecks        []string
	)
	if o.spansOut != "" {
		if err := os.Remove(o.spansOut); err != nil && !os.IsNotExist(err) {
			return result{}, err
		}
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	begin := time.Now()
	for rep := 0; ; rep++ {
		traced := o.trace && rep%2 == 1
		plain, tr := len(walls), len(tracedWalls)
		if time.Since(begin) >= budget && plain >= minReps && (!o.trace || tr >= minReps) {
			break
		}
		var t *tracer
		if traced {
			t = newTracer(w.slice)
		}
		// Time the reference kernel (calib.go), then start from a collected
		// heap with its memory returned to the OS, as a fresh process would.
		// Neither is part of the repetition's timings, which are scaled to
		// the reference host speed.
		scale, cpuScale := calibrate()
		debug.FreeOSMemory()
		resetPeakRSS()

		s0 := time.Now()
		inst, err := w.setup(o.seed, o.tiny, t)
		setup := time.Since(s0).Seconds() * scale
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		var probe *runtimeProbe
		if traced {
			probe = startRuntimeProbe()
		}
		c0 := cpuTime()
		r0 := time.Now()
		inst.run(t)
		wall := time.Since(r0).Seconds() * scale
		cpu := (cpuTime() - c0) * cpuScale
		oc := inst.finish(t)
		if traced {
			probe.finish(t)
			t.layerValues()
			tracedWalls = append(tracedWalls, wall)
			if o.spansOut != "" {
				if err := t.writeSpans(o.spansOut, rep); err != nil {
					return result{}, fmt.Errorf("write spans: %w", err)
				}
			}
			t.set("netsim.parallelism", (cpu/cpuScale)/(wall/scale))
			t.set("host.speed", scale)
			for k, v := range t.vals {
				layer[k] = append(layer[k], v)
			}
		} else {
			setups = append(setups, setup)
			walls = append(walls, wall)
			cpus = append(cpus, cpu)
			peaks = append(peaks, peakRSSMB())
			speeds = append(speeds, scale)
		}

		attempted += oc.ops
		failed += oc.opFailed
		// Every repetition runs the same inputs, so its report must match
		// the first one's, which is untraced: a traced repetition whose
		// wrappers changed the simulation fails here.
		sum := sha256.Sum256([]byte(oc.report))
		d := hex.EncodeToString(sum[:8])
		if digest == "" {
			digest = d
		}
		checks := append(oc.checks, checkf(d == digest, "report-digest", "digest %s, first repetition %s", d, digest))
		for _, c := range checks {
			attempted++
			if !c.ok {
				failed++
				failedChecks = append(failedChecks, fmt.Sprintf("rep %d (traced %v): %s: %s", rep, traced, c.name, c.detail))
			}
		}
		if rep == 0 {
			fmt.Fprintf(out, "report (rep 0):\n%s", indent(oc.report))
		}
	}

	fmt.Fprintf(out, "digest %s (information only: the deterministic report of every repetition)\n", digest)
	for _, c := range failedChecks {
		fmt.Fprintf(out, "FAILED %s\n", c)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if o.trace {
		layer["trace.overhead"] = []float64{median(tracedWalls) / median(walls)}
		for _, m := range perLayerSpecs() {
			res.Metrics[m.name] = metricValue{Value: median(layer[m.name]), Unit: m.unit}
		}
		fmt.Fprintf(out, "reps: %d untraced, %d traced\n", len(walls), len(tracedWalls))
	} else {
		vals := map[string]float64{
			"setup_s":     median(setups),
			"wall_s":      median(walls),
			"cpu_s":       median(cpus),
			"peak_rss_mb": median(peaks),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
		fmt.Fprintf(out, "reps: %d (wall_s min %.4f max %.4f; host speed %.3f of the reference)\n",
			len(walls), minOf(walls), maxOf(walls), median(speeds))
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "metric %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

func indent(s string) string {
	var b strings.Builder
	for _, l := range strings.SplitAfter(s, "\n") {
		if l != "" {
			b.WriteString("  " + l)
		}
	}
	if !strings.HasSuffix(s, "\n") {
		b.WriteString("\n")
	}
	return b.String()
}

// envStamp identifies the code, toolchain and machine a result came from.
func envStamp(o options) string {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	stamp := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"commit":     commit + modified,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
	}
	b, _ := json.Marshal(stamp) // a map of plain values always marshals
	return string(b)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime returns the process's user+system CPU seconds so far.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// resetPeakRSS restarts the kernel's peak-RSS mark at the current resident
// set, so each repetition's peak can be read on its own. Where the kernel
// refuses, peakRSSMB reports the process-lifetime peak instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB returns the peak resident set size since the last resetPeakRSS.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(v), " kB"), &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
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

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
