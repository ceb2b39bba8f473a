// Command benchmark is the repository benchmark: it runs one named
// workload (or all of them) through the program's public surface —
// package matchsim for library solves, real matchd processes reached
// over HTTP for serving — checks every output, and prints the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) by name,
// with unit and sample count. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through benchmark/run.sh, which builds this program and matchd
// from the checkout first:
//
//	bash benchmark/run.sh --workload solve-dense --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --seconds 25
//
// See benchmark/README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// workload is one named input set the benchmark runs; README.md says why
// each exists.
type workload struct {
	name string
	run  func(*env) (*result, error)
}

var workloads = []workload{
	{"solve-dense", runSolveDense},
	{"multilevel-sparse", runMultilevelSparse},
	{"serve", runServe},
	{"serve-cluster", runServeCluster},
}

// env is what one workload run gets from the command line.
type env struct {
	seed    uint64
	seconds float64
	traced  bool
	matchd  string // path of the matchd binary under test
	outDir  string // scratch space for daemons, spans and records
	spans   *spanRecorder
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or \"all\"")
	seed := fs.Uint64("seed", 1, "workload seed: every input derives from it")
	seconds := fs.Float64("seconds", 25, "measurement time of one run")
	trace := fs.Int("trace", -1, "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); default 0, or both with -workload all")
	matchd := fs.String("matchd", "", "matchd binary to serve with (benchmark/run.sh builds it)")
	outDir := fs.String("out", ".bench_build", "directory for daemon scratch space, span logs and records")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; want one of: all%s\n", *name, workloadNames())
		return 2
	}
	if *trace < -1 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "benchmark: -trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "benchmark: -seconds must be positive\n")
		return 2
	}
	modes := []bool{*trace == 1}
	if *trace == -1 && *name == "all" {
		modes = []bool{false, true}
	}
	if *matchd != "" {
		abs, err := filepath.Abs(*matchd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		*matchd = abs
	}

	// Daemons are killed on any way out, signals included.
	stopSignals := make(chan os.Signal, 1)
	signal.Notify(stopSignals, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stopSignals
		stopAllDaemons()
		os.Exit(1)
	}()
	defer stopAllDaemons()

	prov := collectProvenance()
	final := lastLine{Correct: true, Metrics: map[string]lineMetric{}}
	for _, w := range selected {
		for _, traced := range modes {
			e := &env{
				seed:    *seed,
				seconds: *seconds,
				traced:  traced,
				matchd:  *matchd,
				outDir:  *outDir,
				spans:   newSpanRecorder(traced),
			}
			start := time.Now()
			res, err := w.run(e)
			stopAllDaemons()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			res.workload = w.name
			res.traced = traced
			res.wall = time.Since(start)
			printResult(res)
			if err := writeRecord(e, prov, res); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: record:", err)
				return 1
			}
			final.Attempted += res.attempted
			final.Failed += res.failed
			if res.failed > 0 {
				final.Correct = false
			}
			prefix := ""
			if len(selected) > 1 || len(modes) > 1 {
				prefix = w.name + "/"
			}
			for _, m := range res.contractMetrics() {
				final.Metrics[prefix+m.Name] = lineMetric{Value: m.Value, Unit: m.Unit}
			}
		}
	}
	out, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(out))
	if !final.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var b strings.Builder
	for _, w := range workloads {
		b.WriteString(", " + w.name)
	}
	return b.String()
}

// lastLine is the final stdout line every run prints.
type lastLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one reported number with its unit and sample count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// result is what one workload run measured.
type result struct {
	workload string
	traced   bool
	wall     time.Duration

	// endToEnd and layers hold every metric of the two tables in
	// README.md; extra holds further printed figures (SLO ladder rungs,
	// tail percentile ranks, per-process RSS).
	endToEnd, layers, extra []metric
	attempted, failed       int
	failures                []string
	config                  any
}

// fail records one failed operation with its reason.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one output check, failing it when err is non-nil.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

// contractMetrics are the metrics the last line carries: end-to-end on
// an untraced run, per-layer on a traced one.
func (r *result) contractMetrics() []metric {
	if r.traced {
		return r.layers
	}
	var out []metric
	for _, m := range r.endToEnd {
		if gatedEndToEnd[m.Name] {
			out = append(out, m)
		}
	}
	return out
}

func printResult(r *result) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s run, %.1fs wall): %d attempted, %d failed\n",
		r.workload, mode, r.wall.Seconds(), r.attempted, r.failed)
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Printf("  %s\n", title)
		for _, m := range ms {
			note := ""
			if m.Note != "" {
				note = "  " + m.Note
			}
			fmt.Printf("    %-32s %16.6g %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, note)
		}
	}
	if r.traced {
		section("per-layer", r.layers)
		section("end-to-end as seen by the traced run (not gated)", r.endToEnd)
	} else {
		section("end-to-end", r.endToEnd)
	}
	section("more", r.extra)
	for _, f := range r.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// writeRecord stores the run's full record — provenance, configuration
// and every metric — as JSON under the output directory.
func writeRecord(e *env, prov provenance, r *result) error {
	dir := filepath.Join(e.outDir, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spanFile := ""
	if e.traced {
		spanFile = filepath.Join(e.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", r.workload, e.seed))
		if err := e.spans.writeFile(spanFile); err != nil {
			return err
		}
	}
	rec := map[string]any{
		"workload":   r.workload,
		"seed":       e.seed,
		"seconds":    e.seconds,
		"traced":     r.traced,
		"wall_s":     r.wall.Seconds(),
		"provenance": prov,
		"config":     r.config,
		"end_to_end": r.endToEnd,
		"per_layer":  r.layers,
		"more":       r.extra,
		"attempted":  r.attempted,
		"failed":     r.failed,
		"failures":   r.failures,
		"span_log":   spanFile,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, e.seed, boolInt(r.traced)))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  record: %s\n", path)
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// metricSet builds a run's metric table in a fixed order: every name of
// the table is emitted, and names the workload does not exercise read 0.
type metricSet struct {
	order []string
	units map[string]string
	vals  map[string]metric
}

func newMetricSet(defs [][2]string) *metricSet {
	s := &metricSet{units: map[string]string{}, vals: map[string]metric{}}
	for _, d := range defs {
		s.order = append(s.order, d[0])
		s.units[d[0]] = d[1]
	}
	return s
}

// set records a value; it panics on a name outside the table, which is a
// bug in the benchmark, not in the program.
func (s *metricSet) set(name string, v float64, n int, note ...string) {
	unit, ok := s.units[name]
	if !ok {
		panic("benchmark: unknown metric " + name)
	}
	s.vals[name] = metric{Name: name, Value: v, Unit: unit, N: n, Note: strings.Join(note, " ")}
}

func (s *metricSet) list() []metric {
	out := make([]metric, 0, len(s.order))
	for _, name := range s.order {
		m, ok := s.vals[name]
		if !ok {
			m = metric{Name: name, Unit: s.units[name], Note: "layer not exercised by this workload"}
		}
		out = append(out, m)
	}
	return out
}

// gatedEndToEnd are the end-to-end metrics BENCHMARK.json bounds and the
// last line carries: the ones steady on every workload it lists.
// README.md says why solve_s and draws_per_s are printed but not gated.
var gatedEndToEnd = map[string]bool{"setup_s": true, "exec_mean": true, "peak_rss_mb": true, "job_p50_s": true, "job_tail_s": true}

// endToEndDefs and layerDefs are the metric tables of README.md and
// BENCHMARK.json, with units.
var endToEndDefs = [][2]string{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"draws_per_s", "1/s"},
	{"exec_mean", "cost"},
	{"peak_rss_mb", "MB"},
	{"job_p50_s", "s"},
	{"job_tail_s", "s"},
}

var layerDefs = [][2]string{
	{"setup.new_problem_s", "s"},
	{"setup.daemon_ready_s", "s"},
	{"ce.sample_s", "s"},
	{"ce.ns_per_draw", "ns"},
	{"stochmat.reject_tries_per_draw", "ratio"},
	{"stochmat.fallback_per_draw", "ratio"},
	{"cost.pruned_frac", "ratio"},
	{"cost.rescored_frac", "ratio"},
	{"cost.evals", "count"},
	{"ce.iterations", "count"},
	{"ce.iter_s_p50", "s"},
	{"ce.select_s", "s"},
	{"ce.update_s", "s"},
	{"ce.idle_frac", "ratio"},
	{"ce.accounted_frac", "ratio"},
	{"stochmat.rebuilt_rows_frac", "ratio"},
	{"core.levels", "count"},
	{"core.coarse_tasks", "count"},
	{"core.coarsen_s", "s"},
	{"core.coarse_solve_s", "s"},
	{"core.refine_s", "s"},
	{"core.refine_probes", "count"},
	{"core.refine_swaps", "count"},
	{"core.accounted_frac", "ratio"},
	{"httpapi.submit_s_p50", "s"},
	{"httpapi.status_s_p50", "s"},
	{"httpapi.result_s_p50", "s"},
	{"jobs.queue_wait_s_p50", "s"},
	{"jobs.queue_wait_s_tail", "s"},
	{"jobs.run_s_p50", "s"},
	{"jobs.cache_hit_frac", "ratio"},
	{"jobs.solves", "count"},
	{"cluster.hop_s_p50", "s"},
	{"cluster.singleflight_frac", "ratio"},
	{"cluster.cache_hit_frac", "ratio"},
	{"cluster.routed", "count"},
	{"cluster.handoffs", "count"},
	{"telemetry.overhead_frac", "ratio"},
	{"loadgen.late_s_max", "s"},
	{"loadgen.conns", "count"},
	{"loadgen.detect_lag_s_p50", "s"},
}
