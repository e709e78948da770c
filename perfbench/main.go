package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/dist"
)

// A metric is one named figure of a run, with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// registered is a metric's name and unit.
type registered struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports on every workload;
// BENCHMARK.json registers the same names. failed_frac is printed too but
// carried in the result's attempted/failed counts, since it is zero on a
// healthy run.
var endToEnd = []registered{
	{"setup_s", "s"},
	{"trials_per_s", "1/s"},
	{"ns_per_interaction", "ns"},
	{"trial_ms_p50", "ms"},
	{"trial_ms_tail", "ms"},
	{"wave_ms_p50", "ms"},
	{"wave_ms_tail", "ms"},
	{"alloc_b_per_trial", "B"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the metrics a traced run reports on every workload. A
// layer the workload does not load reads 0: that is the prediction, and a
// change that moves it there has moved work into a layer it bypasses.
var perLayer = []registered{
	{"core.run_ms_per_trial", "ms"},
	{"core.interactions_per_trial", "count"},
	{"core.windows_per_trial", "count"},
	{"core.events_per_window", "count"},
	{"core.exact_steps_per_trial", "count"},
	{"core.small_window_frac", "ratio"},
	{"core.ns_per_event", "ns"},
	{"core.modelled_frac", "ratio"},
	{"rng.uint128n_ns", "ns"},
	{"rng.geometric_u128_ns", "ns"},
	{"rng.binomial_ns", "ns"},
	{"rng.multinomial_ns", "ns"},
	{"rng.negbin_u128_ns", "ns"},
	{"fenwick.setall_ns", "ns"},
	{"fenwick.add_ns", "ns"},
	{"fenwick.find_weighted_ns", "ns"},
	{"experiment.reset_us_per_trial", "us"},
	{"experiment.fold_us_per_trial", "us"},
	{"experiment.engine_overhead_frac", "ratio"},
	{"phase.us_per_trial", "us"},
	{"dist.launch_ms", "ms"},
	{"dist.handshake_ms", "ms"},
	{"dist.bytes_in_per_trial", "B"},
	{"dist.bytes_out_per_trial", "B"},
	{"dist.lines_in_per_trial", "count"},
	{"dist.decode_us_per_trial", "us"},
	{"dist.snapshot_us_per_wave", "us"},
	{"dist.checkpoint_bytes", "B"},
	{"dist.waves", "count"},
	{"dist.relaunches", "count"},
	{"dist.requeued", "count"},
	{"dist.worker_busy_frac", "ratio"},
	{"dist.barrier_wait_frac", "ratio"},
	{"core.self_frac", "ratio"},
	{"experiment.self_frac", "ratio"},
	{"phase.self_frac", "ratio"},
	{"dist.self_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unexplained_frac", "ratio"},
}

// env records where a result was measured.
type env struct {
	Seed       uint64 `json:"seed"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

// commit is the source revision, set at link time by run.sh.
var commit = "unknown"

func currentEnv(seed uint64) env {
	return env{
		Seed:       seed,
		Commit:     commit,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel returns the processor model from /proc/cpuinfo, or "" where
// the platform does not expose it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// result is everything one workload run measured.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Env       env               `json:"env"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Tails records, beside each tail metric, the percentile it sits at
	// and the sample count it comes from.
	Tails      map[string]tail `json:"tails,omitempty"`
	Accounting *accounting     `json:"accounting,omitempty"`
	// Sessions lists sharded-fleet's dist.Run sessions.
	Sessions []sessionSummary `json:"sessions,omitempty"`

	tracer *tracer
}

func newResult(workload string, traced bool, seconds float64) *result {
	return &result{Workload: workload, Trace: traced, Seconds: seconds,
		Metrics: map[string]metric{}, Tails: map[string]tail{}}
}

// units maps every registered metric to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range append(append([]registered(nil), endToEnd...), perLayer...) {
		u[m.name] = m.unit
	}
	return u
}()

func (r *result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: unregistered metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed check; the trial (or session) it concerns is
// counted as failed by the caller.
func (r *result) fail(format string, args ...any) {
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// setTail records a latency distribution as name_p50 and name_tail.
func (r *result) setTail(name string, samples []float64) {
	t, err := tailOf(samples)
	if err != nil {
		r.Failed++
		r.fail("%s: %d samples: %v", name, len(samples), err)
		return
	}
	r.set(name+"_p50", t.P50)
	r.set(name+"_tail", t.Value)
	r.Tails[name] = t
}

// ok reports whether every check passed.
func (r *result) ok() bool { return r.Failed == 0 && len(r.Failures) == 0 }

// wanted returns the registry the run must fill.
func (r *result) wanted() []registered {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// finish fills the per-layer metrics a workload does not load with 0 and
// checks that every registered metric is present and finite.
func (r *result) finish() {
	for _, m := range r.wanted() {
		v, ok := r.Metrics[m.name]
		switch {
		case !ok && r.Trace:
			r.set(m.name, 0)
		case !ok:
			r.fail("metric %s was not measured", m.name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			r.fail("metric %s is %v", m.name, v.Value)
		}
	}
}

// print writes the human-readable report.
func (r *result) print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "workload %s  trace=%v  seed=%d  commit=%s  %s  nproc=%d  GOMAXPROCS=%d  cpu=%q\n",
		r.Workload, r.Trace, e.Seed, e.Commit, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.CPUModel)
	for _, m := range r.wanted() {
		v := r.Metrics[m.name]
		fmt.Fprintf(w, "  %-32s %12s %s", m.name, sig(v.Value), m.unit)
		if base, ok := strings.CutSuffix(m.name, "_tail"); ok {
			if t, ok := r.Tails[base]; ok {
				fmt.Fprintf(w, "  (p%.4g of %d samples)", t.Pct, t.Count)
			}
		}
		fmt.Fprintln(w)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-32s %12s ratio  (%d of %d)\n", "failed_frac", sig(frac), r.Failed, r.Attempted)
	if a := r.Accounting; a != nil {
		fmt.Fprintf(w, "  layer accounting over %.4g ms of wall:", float64(a.WallNs)/1e6)
		for _, l := range []string{"core", "phase", "experiment", "dist"} {
			fmt.Fprintf(w, " %s %.4g ms,", l, float64(a.SelfNs[l])/1e6)
		}
		fmt.Fprintf(w, " residual %.4g ms\n", float64(a.ResidualNs)/1e6)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// save writes the full result, and the spans of a traced run, under dir.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Env.Seed, b2i(r.Trace)))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := dist.WriteFileAtomic(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if r.tracer != nil {
		return r.tracer.write(base + ".spans.jsonl")
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed uint64, d time.Duration, traced bool, work string) *result{
	"small-n-fleet": runSmallNFleet,
	"large-n":       runLargeN,
	"sharded-fleet": runShardedFleet,
}

var workloadOrder = []string{"small-n-fleet", "large-n", "sharded-fleet"}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
		seed     = fs.Uint64("seed", 1, "workload seed; every trial seed derives from it")
		seconds  = fs.Float64("seconds", 10, "measured seconds per workload")
		trace    = fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
		work     = fs.String("work", ".bench_build", "directory for results, spans, checkpoints and worker traces")
		worker   = fs.String("shard-worker", "", "internal: serve as shard worker \"i/of\" over stdin/stdout")
		spread   = fs.String("spread", "", "print the median and quartile spread of each metric over the result lines in this file, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *worker != "" {
		return serveWorker(*worker, *work, *trace == 1)
	}
	if *spread != "" {
		return 0, printSpread(*spread, stdout)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			return 2, fmt.Errorf("unknown -workload %q (want %s, or all)", n, strings.Join(workloadOrder, ", "))
		}
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("-trace %d, want 0 or 1", *trace)
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds %v, want > 0", *seconds)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return 1, err
	}
	e := currentEnv(*seed)
	d := time.Duration(*seconds * float64(time.Second))
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		r := workloads[n](*seed, d, *trace == 1, *work)
		r.Env = e
		r.finish()
		r.print(stdout)
		if err := r.save(filepath.Join(*work, "results")); err != nil {
			r.fail("save result: %v", err)
		}
		final.Correct = final.Correct && r.ok()
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct || final.Failed > 0 {
		return 1, errors.New("a correctness check failed")
	}
	return 0, nil
}
