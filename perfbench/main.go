// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the public entry points of the planning, serving,
// execution and job-scheduling layers, checks every output, and prints
// each metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 they are the per-layer ones, taken from a
// traced run that also writes a Chrome trace. See README.md for the
// workloads and what each metric is expected to move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	stdruntime "runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for records and traces; "" keeps none
}

// chromeFile is where a traced run writes its Chrome trace, or "" when
// the run keeps no files.
func (c config) chromeFile() string {
	if c.out == "" {
		return ""
	}
	return filepath.Join(c.out, fmt.Sprintf("%s-seed%d.trace.json", c.workload, c.seed))
}

// measured is the share of a run's seconds spent on the untraced
// measurement in a traced run; the rest is the traced measurement.
const measuredShare = 0.5

// setupReps is how often each workload sets up per run; setup_s is the
// median.
const setupReps = 5

// outcome is what one workload run reports.
type outcome struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`

	// SetupS holds every set-up sample of the run, in seconds.
	SetupS []float64 `json:"setup_s"`
	// OpMS holds every timed operation of the untraced measurement, in
	// milliseconds and in the order they ran; P50, TailP and Tail are
	// the figures reported from them (see setOps).
	OpMS  []float64 `json:"op_ms"`
	P50   float64   `json:"p50_ms"`
	TailP float64   `json:"tail_percentile"`
	Tail  float64   `json:"tail_ms"`
	// Rate is the workload's rate_per_s (see README.md).
	Rate float64 `json:"rate_per_s"`
	// AllocKB is the heap allocated per timed operation, in KiB.
	AllocKB float64 `json:"alloc_kb_per_op"`

	// Named are the workload's own end-to-end figures under the names
	// README.md gives them (serve.p50_ms, plan.cold_p50_ms, ...).
	Named []named `json:"named"`
	// Layers are the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

type named struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

func (o *outcome) add(name, unit string, v float64) {
	o.Named = append(o.Named, named{name, unit, v})
}

// setOps records the timed operations and reports their median and
// tail.
func (o *outcome) setOps(opMS []float64) {
	o.OpMS = opMS
	o.P50 = median(opMS)
	o.TailP, o.Tail = tail(opMS)
}

// metricDef is one metric of the JSON result line.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the same on every
// workload; README.md maps each to the workload's own figure. The tail
// is printed and recorded but not among them: on a small shared host it
// moves by more between identical runs than any bound allows.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"rate_per_s", "1/s"},
	{"alloc_kb_per_op", "KiB"},
}

// perLayer are the metrics of a traced run. A layer that a workload does
// not reach reports 0 there.
var perLayer = []metricDef{
	{"error_rate", "ratio"},
	{"serve.handler_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.self_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.planning_passes", "count"},
	{"serve.shed", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"plan.hit_us", "us"},
	{"plan.self_us", "us"},
	{"plan.reused_layer_ratio", "ratio"},
	{"plan.extend_p50_ms", "ms"},
	{"graph.contract_us", "us"},
	{"graph.layers_us", "us"},
	{"core.schedule_us", "us"},
	{"core.map_us", "us"},
	{"core.gsearch_layers", "count"},
	{"cost.memo_hit_ratio", "ratio"},
	{"cluster.simulate_us", "us"},
	{"cluster.sim_tasks", "count"},
	{"runtime.exec_ms", "ms"},
	{"runtime.busy_frac", "ratio"},
	{"runtime.extra_goroutines", "count"},
	{"runtime.seq_ref_ms", "ms"},
	{"runtime.retries", "count"},
	{"runtime.resizes", "count"},
	{"dynsched.queue_wait_ms", "ms"},
	{"dynsched.mean_bounded_slowdown", "ratio"},
	{"dynsched.max_bounded_slowdown", "ratio"},
	{"dynsched.grows", "count"},
	{"dynsched.shrinks", "count"},
	{"dynsched.backfills", "count"},
	{"dynsched.utilization", "ratio"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.drops", "count"},
	{"obs.self_coverage_pct", "%"},
}

var workloads = map[string]func(ctx context.Context, cfg config) (*outcome, error){
	"serve-hot":      runServeHot,
	"plan-cold":      runPlanCold,
	"exec-wavefront": runExecWavefront,
	"jobs-stream":    runJobsStream,
}

func main() {
	var (
		cfg   config
		secs  int
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-hot, plan-cold, exec-wavefront or jobs-stream")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&secs, "seconds", 10, "measured seconds of the run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "directory for the run record and the Chrome trace (empty: none)")
	flag.Parse()
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, secs, trace)
		os.Exit(2)
	}

	st := hostStamp()
	fmt.Printf("perfbench %s seed %d, %v, trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("host: %d cores, GOMAXPROCS %d, %s, %s, commit %s\n", st.Cores, st.GOMAXPROCS, st.GoVersion, st.CPU, st.Commit)

	o, err := run(context.Background(), cfg)
	if o == nil {
		o = &outcome{}
	}
	metrics := resultMetrics(cfg, o)
	printNamed(cfg, o, metrics)
	if cfg.out != "" {
		if werr := writeRecord(cfg.out, cfg, st, o, metrics, err); werr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing the run record: %v\n", werr)
		}
	}
	if err != nil {
		fmt.Printf("CHECK FAILED: %v\n", err)
	}
	attempted := o.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   err == nil,
		"attempted": attempted,
		"failed":    o.Failed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultMetrics builds the JSON line's metrics for the run's mode. A
// figure with no samples behind it (NaN) reports 0.
func resultMetrics(cfg config, o *outcome) map[string]metricValue {
	defs, vals := endToEnd, map[string]float64{
		"setup_s":         median(o.SetupS),
		"p50_ms":          o.P50,
		"rate_per_s":      o.Rate,
		"alloc_kb_per_op": o.AllocKB,
	}
	if cfg.trace {
		defs, vals = perLayer, o.Layers
	}
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[d.name] = metricValue{v, d.unit}
	}
	return m
}

func printNamed(cfg config, o *outcome, metrics map[string]metricValue) {
	if len(o.OpMS) > 0 {
		fmt.Printf("operations: %d timed, reported p50 %.4f ms and p%g %.4f ms\n", len(o.OpMS), o.P50, o.TailP, o.Tail)
	}
	fmt.Printf("set-up samples (s): %v\n", o.SetupS)
	rate := 0.0
	if o.Attempted > 0 {
		rate = float64(o.Failed) / float64(o.Attempted)
	}
	fmt.Printf("%-34s %14.6g %s\n", "error_rate", rate, "ratio")
	for _, n := range o.Named {
		fmt.Printf("%-34s %14.6g %s\n", n.Name, n.Value, n.Unit)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer"
	}
	fmt.Printf("%s metrics:\n", mode)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// stamp identifies the host and the code a record was measured on.
type stamp struct {
	Cores      int    `json:"host_cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

func hostStamp() stamp {
	return stamp{
		Cores:      stdruntime.NumCPU(),
		GOMAXPROCS: stdruntime.GOMAXPROCS(0),
		GoVersion:  stdruntime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git commit of the working directory, or, outside a git
// checkout, "src-" and a SHA-256 prefix of the Go sources and module
// files, so records of the same code still compare equal.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("src-%x", h.Sum(nil)[:8])
}

// writeRecord writes the run's full record — stamp, configuration,
// every sample and every metric — as JSON under dir.
func writeRecord(dir string, cfg config, st stamp, o *outcome, metrics map[string]metricValue, runErr error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"stamp":    st,
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds.Seconds(),
		"trace":    cfg.trace,
		"outcome":  o,
		"metrics":  metrics,
		"correct":  runErr == nil,
	}
	if runErr != nil {
		rec["error"] = runErr.Error()
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, b2i(cfg.trace))
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// allocated returns the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timeSetup runs setup setupReps times and returns every duration and
// the last set-up's result. Each repetition builds everything afresh.
func timeSetup[T any](setup func() (T, error)) ([]float64, T, error) {
	var (
		last T
		out  []float64
	)
	for i := 0; i < setupReps; i++ {
		stdruntime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return out, last, err
		}
		out = append(out, time.Since(start).Seconds())
		last = v
	}
	return out, last, nil
}
