package core

import (
	"fmt"
	"testing"

	"matchsim/internal/ce"
	"matchsim/internal/cost"
	"matchsim/internal/gen"
)

func fusedTestEval(t *testing.T, seed uint64, n int) *cost.Evaluator {
	t.Helper()
	inst, err := gen.PaperInstance(seed, n, gen.DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	eval, err := cost.NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		t.Fatal(err)
	}
	return eval
}

// exactOnly is a test view of a CE problem that exposes ce.Problem and
// nothing else. Embedding the interface type promotes only its methods,
// so ce.Run cannot discover the wrapped problem's ce.GammaPruner (or its
// telemetry extensions) and scores every draw exactly: the problem's
// pruning threshold is never installed and stays +Inf.
type exactOnly struct{ ce.Problem[[]int] }

// runPrunedAndExact runs ce.Run twice on fresh problems from build: once
// on the problem itself (gamma pruning on) and once through the exactOnly
// view (pruning off).
func runPrunedAndExact(t *testing.T, build func() ce.Problem[[]int], cfg ce.Config) (pruned, exact ce.Result[[]int]) {
	t.Helper()
	p := build()
	if _, ok := p.(ce.GammaPruner[[]int]); !ok {
		t.Fatal("problem does not implement ce.GammaPruner")
	}
	pruned, err := ce.Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, err = ce.Run[[]int](exactOnly{build()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pruned, exact
}

// checkPruneInvariant asserts that gamma pruning left the whole search
// trajectory untouched: gamma, best and best-so-far per iteration, the
// final mapping, the iteration count and the stop reason. Only
// Worst/Mean may differ (aggregated over unpruned draws only). It
// returns how many draws the pruned run pruned.
func checkPruneInvariant(t *testing.T, label string, pruned, exact ce.Result[[]int]) int {
	t.Helper()
	if pruned.BestScore != exact.BestScore || !equalInts(pruned.Best, exact.Best) {
		t.Fatalf("%s: pruned %v %v != unpruned %v %v",
			label, pruned.BestScore, pruned.Best, exact.BestScore, exact.Best)
	}
	if pruned.Iterations != exact.Iterations || pruned.StopReason != exact.StopReason {
		t.Fatalf("%s: trajectory diverges: %d/%s vs %d/%s", label,
			pruned.Iterations, pruned.StopReason, exact.Iterations, exact.StopReason)
	}
	totalPruned := 0
	for i := range pruned.History {
		a, b := pruned.History[i], exact.History[i]
		if a.Gamma != b.Gamma || a.Best != b.Best || a.BestSoFar != b.BestSoFar {
			t.Fatalf("%s iteration %d: search stats diverge: %+v vs %+v", label, i, a, b)
		}
		if b.Pruned != 0 || b.Rescored != 0 {
			t.Fatalf("%s iteration %d: unpruned run reports %d pruned, %d rescored draws",
				label, i, b.Pruned, b.Rescored)
		}
		totalPruned += a.Pruned
	}
	return totalPruned
}

// TestSolvePrunedUnprunedInvariant: gamma pruning is a pure strength
// reduction — it skips provably-over-threshold score accumulation and the
// CE loop rescues any draw the elite boundary could reach — so the entire
// search trajectory (gamma sequence, per-iteration best, elite-driven
// updates, final mapping, stop) must be identical to a run that cannot
// see the pruning extension at all, for both the bijective and the
// many-to-one problem. Pruning must actually fire, or the optimisation is
// dead code.
func TestSolvePrunedUnprunedInvariant(t *testing.T) {
	for _, c := range []struct {
		seed    uint64
		workers int
	}{{7, 1}, {3, 4}, {11, 3}} {
		eval := fusedTestEval(t, 42, 16)
		opts := Options{Seed: c.seed, Workers: c.workers, MaxIterations: 80}.withDefaults(16)
		cfg := ce.Config{
			SampleSize:    opts.SampleSize,
			StallWindow:   opts.GammaStallWindow,
			MaxIterations: opts.MaxIterations,
			Workers:       opts.Workers,
			Seed:          opts.Seed,
			Minimize:      true,
		}
		pruned, exact := runPrunedAndExact(t, func() ce.Problem[[]int] { return newProblem(eval, opts) }, cfg)
		label := fmt.Sprintf("seed=%d workers=%d", c.seed, c.workers)
		if checkPruneInvariant(t, label, pruned, exact) == 0 {
			t.Fatalf("%s: pruning never fired", label)
		}
	}

	// Many-to-one: 12 tasks on a 5-resource platform.
	inst, err := gen.PaperInstance(8, 12, gen.DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	small, err := gen.PaperInstance(9, 5, gen.DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	eval, err := cost.NewEvaluator(inst.TIG, small.Platform)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ce.Config{SampleSize: 2 * 12 * 5, StallWindow: 25, MaxIterations: 60, Workers: 2, Seed: 5, Minimize: true}
	pruned, exact := runPrunedAndExact(t, func() ce.Problem[[]int] { return newManyToOneProblem(eval, 5, 0) }, cfg)
	if checkPruneInvariant(t, "many-to-one", pruned, exact) == 0 {
		t.Fatal("many-to-one: pruning never fired")
	}
}

// TestSolveDeterminismPinned pins complete runs for fixed seeds. Any
// change to the sampling order, RNG consumption, elite selection, score
// accumulation, or smoothing arithmetic shows up here as a changed
// execution time, iteration count, or mapping. Since the work-stealing
// runtime keys RNG streams to (seed, iteration, work unit) rather than to
// workers, every worker count must reproduce the same pinned run — each
// case is checked at two counts. The values were recorded with gamma
// pruning on; a run without it must reproduce them too (see the
// invariance test above).
func TestSolveDeterminismPinned(t *testing.T) {
	cases := []struct {
		seed     uint64
		wantExec float64
		wantIter int
		wantStop string
		wantMap  []int
	}{
		{7, 6432, 49, "distribution-converged",
			[]int{0, 13, 5, 12, 10, 14, 4, 8, 15, 1, 3, 2, 11, 7, 9, 6}},
		{3, 6621, 46, "distribution-converged",
			[]int{2, 15, 3, 11, 9, 6, 10, 14, 5, 0, 4, 13, 1, 7, 12, 8}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			eval := fusedTestEval(t, 42, 16)
			res, err := Solve(eval, Options{Seed: c.seed, Workers: workers, MaxIterations: 80})
			if err != nil {
				t.Fatal(err)
			}
			if res.Exec != c.wantExec {
				t.Errorf("seed=%d workers=%d: exec %v, want %v", c.seed, workers, res.Exec, c.wantExec)
			}
			if res.Iterations != c.wantIter {
				t.Errorf("seed=%d workers=%d: iterations %d, want %d", c.seed, workers, res.Iterations, c.wantIter)
			}
			if string(res.StopReason) != c.wantStop {
				t.Errorf("seed=%d workers=%d: stop %s, want %s", c.seed, workers, res.StopReason, c.wantStop)
			}
			if !equalInts(res.Mapping, c.wantMap) {
				t.Errorf("seed=%d workers=%d: mapping %v, want %v", c.seed, workers, res.Mapping, c.wantMap)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
