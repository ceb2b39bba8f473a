package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"matchsim"
)

// libraryConfig describes a library workload: a fixed list of solves of
// SolveMaTCH through the public API, repeated in whole passes.
type libraryConfig struct {
	Instance   string   `json:"instance"`
	Tasks      int      `json:"tasks"`
	InstSeeds  []uint64 `json:"instance_seeds"`
	CESeeds    []uint64 `json:"ce_seeds"`
	Workers    int      `json:"workers"`
	SetupReps  int      `json:"setup_reps"`
	MaxIters   int      `json:"max_iterations,omitempty"`
	SparseEps  float64  `json:"sparse_eps,omitempty"`
	MinCoarse  int      `json:"min_coarse,omitempty"`
	Order      []int    `json:"order"`
	StopRule   string   `json:"stop_rule"`
	instanceFn func(seed uint64) ([]byte, error)
}

// runSolveDense: paper Section 5.2 instances, n = 64 (N = 2n^2 = 8192
// draws per iteration), paper defaults and the natural eq. (12) stop,
// two sampling workers. The solve list is fixed: with the natural stop a
// solve takes 6.8 to 11 s depending on instance and CE seed, so instances
// drawn from the workload seed would spread solve_s far past its bound.
// The seed rotates the order of the list.
func runSolveDense(e *env) (*result, error) {
	cfg := libraryConfig{
		Instance:   "paper-sec5.2",
		Tasks:      64,
		InstSeeds:  []uint64{1, 2, 3},
		CESeeds:    []uint64{1, 1, 1},
		Workers:    2,
		SetupReps:  20,
		StopRule:   "natural eq. (12) stop, paper defaults",
		instanceFn: func(seed uint64) ([]byte, error) { return paperInstance(seed, 64) },
	}
	return runLibrary(e, cfg)
}

// runMultilevelSparse: the documented large-n configuration (multilevel
// down to 64 coarse tasks, sparse rows at 1e-4, 200 coarse iterations at
// most) on one n = 2048 sparse TIG of mean degree 8 over a two-level
// cluster platform. The instance is fixed for the same reason as
// solve-dense's list: the coarse size, and with it the coarse CE cost,
// varies from 64 to 87 tasks (2.8 to 7.4 s) between generated instances.
func runMultilevelSparse(e *env) (*result, error) {
	cfg := libraryConfig{
		Instance:   "sparse-hierarchical (mean degree 8, n/64 clusters)",
		Tasks:      2048,
		InstSeeds:  []uint64{1, 1, 1, 1},
		CESeeds:    []uint64{1, 2, 3, 4},
		Workers:    2,
		SetupReps:  4,
		MaxIters:   200,
		SparseEps:  1e-4,
		MinCoarse:  64,
		StopRule:   "natural stop, at most 200 coarse iterations",
		instanceFn: func(seed uint64) ([]byte, error) { return sparseHierInstance(seed, 2048, 8), nil },
	}
	return runLibrary(e, cfg)
}

// solveOutcome is one library solve as the benchmark observed it.
type solveOutcome struct {
	wall    float64 // SolveMaTCH call
	latency float64 // call plus output check
	sol     *matchsim.Solution
	iters   []matchsim.IterationTrace
	draws   int
}

func runLibrary(e *env, cfg libraryConfig) (*result, error) {
	res := &result{}
	k := len(cfg.InstSeeds)
	cfg.Order = make([]int, k)
	for i := range cfg.Order {
		cfg.Order[i] = int((uint64(i) + e.seed) % uint64(k))
	}
	res.config = cfg

	// Inputs: instance JSON per distinct instance seed, built before any
	// timing.
	inputs := map[uint64][]byte{}
	for _, s := range cfg.InstSeeds {
		if inputs[s] != nil {
			continue
		}
		data, err := cfg.instanceFn(s)
		if err != nil {
			return nil, err
		}
		inputs[s] = data
	}

	// Set-up: ReadProblem builds the cost model (the n x r compute and
	// link tables). The public surface offers no cheaper way to state a
	// large fully linked platform: AddLink scans the link list on every
	// call and NewProblem closes a sparse topology with an O(n^3)
	// Floyd-Warshall, so the JSON decoding of the instance is inside the
	// timed window. Each instance is set up SetupReps times, half before
	// the solves and half after them, so that a slow spell of the host
	// does not weigh on every sample; the median is setup_s.
	var setupTimes []float64
	problems := map[uint64]*matchsim.Problem{}
	setUp := func(reps int) error {
		for rep := 0; rep < reps; rep++ {
			for s, data := range inputs {
				t0 := time.Now()
				p, err := matchsim.ReadProblem(bytes.NewReader(data))
				setupTimes = append(setupTimes, time.Since(t0).Seconds())
				if err != nil {
					return fmt.Errorf("instance %d: %w", s, err)
				}
				problems[s] = p
				// Free the replaced problem so the peak RSS holds one copy.
				runtime.GC()
			}
		}
		return nil
	}
	if err := setUp((cfg.SetupReps + 1) / 2); err != nil {
		return nil, err
	}

	opts := func(i int) matchsim.MaTCHOptions {
		o := matchsim.MaTCHOptions{Seed: cfg.CESeeds[i], Workers: cfg.Workers, MaxIterations: cfg.MaxIters, SparseEps: cfg.SparseEps}
		if cfg.MinCoarse > 0 {
			o.Multilevel = &matchsim.MultilevelOptions{MinCoarse: cfg.MinCoarse}
		}
		return o
	}
	first := map[int]*matchsim.Solution{}
	solve := func(i int, traced bool) (solveOutcome, error) {
		p := problems[cfg.InstSeeds[i]]
		o := opts(i)
		var out solveOutcome
		var root, iter *span
		if traced {
			o.OnIteration = func(tr matchsim.IterationTrace) {
				iter.attr("i", strconv.Itoa(tr.Iteration))
				iter.finish()
				iter = e.spans.start("iteration", root)
				out.iters = append(out.iters, tr)
				out.draws += tr.Draws
			}
		} else {
			// A counter, not a span: draws_per_s needs the draw total.
			o.OnIteration = func(tr matchsim.IterationTrace) { out.draws += tr.Draws }
		}
		// Every solve starts from a collected heap, so neither its time nor
		// the peak RSS depends on garbage left by the previous one.
		runtime.GC()
		if traced {
			root = e.spans.start("solve", nil)
			root.attr("item", strconv.Itoa(i))
			iter = e.spans.start("iteration", root)
		}
		t0 := time.Now()
		sol, err := matchsim.SolveMaTCH(p, o)
		out.wall = time.Since(t0).Seconds()
		if err != nil {
			return out, err
		}
		check := e.spans.start("check", root)
		res.check(checkSolution(p, sol.Mapping, sol.Exec))
		if prev := first[i]; prev != nil {
			res.check(sameResult(prev.Mapping, prev.Exec, sol.Mapping, sol.Exec))
		} else {
			first[i] = sol
		}
		check.finish()
		out.latency = time.Since(t0).Seconds()
		root.finish()
		out.sol = sol
		return out, nil
	}

	// Warm-up, untimed: a three-iteration solve of the first item faults in
	// the sample buffers and worker pool, which would otherwise slow
	// whichever solve comes first (the seed rotates which one that is).
	warm := opts(cfg.Order[0])
	warm.MaxIterations = 3
	if _, err := matchsim.SolveMaTCH(problems[cfg.InstSeeds[cfg.Order[0]]], warm); err != nil {
		return nil, err
	}

	// The traced run also solves the list's first item once untraced: its
	// wall against the traced solve of the same item (same instance, seed
	// and trajectory) is the cost of the spans. The untraced solve comes
	// before the traced list on even seeds and after it on odd ones, so
	// that over seeds neither side always runs first.
	var untracedFirst float64
	untracedPair := func() error {
		o, err := solve(cfg.Order[0], false)
		untracedFirst = o.wall
		return err
	}
	if e.traced && e.seed%2 == 0 {
		if err := untracedPair(); err != nil {
			return nil, err
		}
	}

	// Whole passes over the list while the next pass fits in the
	// measurement time; at least one.
	var outs []solveOutcome
	start := time.Now()
	for pass := 0; ; pass++ {
		passStart := time.Now()
		for _, i := range cfg.Order {
			o, err := solve(i, e.traced)
			if err != nil {
				return nil, err
			}
			outs = append(outs, o)
		}
		passDur := time.Since(passStart).Seconds()
		if time.Since(start).Seconds()+passDur > e.seconds {
			break
		}
	}
	if e.traced && e.seed%2 == 1 {
		if err := untracedPair(); err != nil {
			return nil, err
		}
	}

	// The peak RSS is read before the second half of the set-ups, which
	// hold no more memory than the first.
	rss, err := procHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	if err := setUp(cfg.SetupReps / 2); err != nil {
		return nil, err
	}

	var walls, lats, execs []float64
	draws := 0
	for _, o := range outs {
		walls = append(walls, o.wall)
		lats = append(lats, o.latency)
		execs = append(execs, o.sol.Exec)
		draws += o.draws
	}
	e2e := newMetricSet(endToEndDefs)
	e2e.set("setup_s", median(setupTimes), len(setupTimes), "median ReadProblem")
	e2e.set("solve_s", median(walls), len(walls))
	e2e.set("draws_per_s", ratio(float64(draws), sum(walls)), len(walls))
	e2e.set("exec_mean", mean(execs), len(execs))
	e2e.set("peak_rss_mb", rss, 1, "VmHWM of the benchmark process")
	setJobLatency(e2e, lats, "closed loop, one caller")
	res.endToEnd = e2e.list()
	res.extra = append(res.extra, metric{Name: "failed_frac", Value: ratio(float64(res.failed), float64(res.attempted)), Unit: "ratio", N: res.attempted})

	if e.traced {
		res.layers = libraryLayers(e, cfg, outs, setupTimes, untracedFirst/outs[0].wall)
	}
	return res, nil
}

// libraryLayers turns the traced solves' public telemetry
// (IterationTrace, Solution.Levels) and the benchmark's spans into the
// per-layer table.
func libraryLayers(e *env, cfg libraryConfig, outs []solveOutcome, setupTimes []float64, untracedOverTraced float64) []metric {
	var sample, sel, upd, idle, draws, rejects, fallback, pruned, rescored, rebuilt, skipped, iters, evals, wall float64
	var coarsen, csolve, refine, probes, swaps, levels, coarseTasks float64
	for _, o := range outs {
		wall += o.wall
		evals += float64(o.sol.Evaluations)
		iters += float64(len(o.iters))
		for _, t := range o.iters {
			sample += float64(t.SampleNs)
			sel += float64(t.SelectNs)
			upd += float64(t.UpdateNs)
			idle += float64(t.IdleNs)
			draws += float64(t.Draws)
			rejects += float64(t.RejectTries)
			fallback += float64(t.FallbackDraws)
			pruned += float64(t.Pruned)
			rescored += float64(t.Rescored)
			rebuilt += float64(t.RebuiltRows)
			skipped += float64(t.SkippedRows)
		}
		levels += float64(len(o.sol.Levels))
		for i, l := range o.sol.Levels {
			coarsen += float64(l.CoarsenNs)
			csolve += float64(l.SolveNs)
			refine += float64(l.RefineNs)
			probes += float64(l.RefineProbes)
			swaps += float64(l.RefineSwaps)
			if i == len(o.sol.Levels)-1 {
				coarseTasks += float64(l.Tasks)
			}
		}
	}
	n := float64(len(outs))
	ns := float64(time.Second)
	m := newMetricSet(layerDefs)
	m.set("setup.new_problem_s", median(setupTimes), len(setupTimes))
	m.set("ce.sample_s", sample/ns/n, len(outs), "per solve")
	m.set("ce.ns_per_draw", ratio(sample, draws), int(draws))
	m.set("stochmat.reject_tries_per_draw", ratio(rejects, draws), int(draws))
	m.set("stochmat.fallback_per_draw", ratio(fallback, draws), int(draws))
	m.set("cost.pruned_frac", ratio(pruned, draws), int(draws))
	m.set("cost.rescored_frac", ratio(rescored, draws), int(draws))
	m.set("cost.evals", evals/n, len(outs), "per solve")
	m.set("ce.iterations", iters/n, len(outs), "per solve")
	its := e.spans.durations("iteration")
	m.set("ce.iter_s_p50", median(its), len(its), "span between OnIteration calls")
	m.set("ce.select_s", sel/ns/n, len(outs), "per solve")
	m.set("ce.update_s", upd/ns/n, len(outs), "per solve")
	m.set("ce.idle_frac", ratio(idle, float64(cfg.Workers)*sample), int(iters))
	m.set("ce.accounted_frac", ratio((sample+sel+upd)/ns, wall), len(outs), "(sample+select+update)/solve wall")
	m.set("stochmat.rebuilt_rows_frac", ratio(rebuilt, rebuilt+skipped), int(iters))
	if levels > 0 {
		m.set("core.levels", levels/n, len(outs), "per solve")
		m.set("core.coarse_tasks", coarseTasks/n, len(outs), "per solve")
		m.set("core.coarsen_s", coarsen/ns/n, len(outs), "per solve")
		m.set("core.coarse_solve_s", csolve/ns/n, len(outs), "per solve")
		m.set("core.refine_s", refine/ns/n, len(outs), "per solve")
		m.set("core.refine_probes", probes/n, len(outs), "per solve")
		m.set("core.refine_swaps", swaps/n, len(outs), "per solve")
		m.set("core.accounted_frac", ratio((coarsen+csolve+refine)/ns, wall), len(outs), "(coarsen+coarse solve+refine)/solve wall")
	}
	m.set("telemetry.overhead_frac", 1/untracedOverTraced-1, 1, "traced vs untraced wall of one solve")
	return m.list()
}

// checkSolution verifies a returned mapping: a permutation of the
// resources whose execution time, recomputed by Problem.Exec, equals the
// reported one bit for bit.
func checkSolution(p *matchsim.Problem, mapping []int, exec float64) error {
	n := p.NumTasks()
	if len(mapping) != n {
		return fmt.Errorf("output check failed: mapping has %d entries for %d tasks", len(mapping), n)
	}
	seen := make([]bool, p.NumResources())
	for t, r := range mapping {
		if r < 0 || r >= len(seen) || seen[r] {
			return fmt.Errorf("output check failed: mapping is not a permutation (task %d -> %d)", t, r)
		}
		seen[r] = true
	}
	got, err := p.Exec(mapping)
	if err != nil {
		return fmt.Errorf("output check failed: %v", err)
	}
	if math.Float64bits(got) != math.Float64bits(exec) {
		return fmt.Errorf("output check failed: reported ET %v, Problem.Exec gives %v", exec, got)
	}
	return nil
}

// sameResult requires two results of one (instance, options, seed) to be
// identical bit for bit.
func sameResult(m1 []int, e1 float64, m2 []int, e2 float64) error {
	if math.Float64bits(e1) != math.Float64bits(e2) || len(m1) != len(m2) {
		return fmt.Errorf("output check failed: repeat gave ET %v, original %v", e2, e1)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			return fmt.Errorf("output check failed: repeat mapping differs at task %d", i)
		}
	}
	return nil
}
