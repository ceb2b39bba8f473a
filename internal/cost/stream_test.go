package cost

import (
	"math"
	"sort"
	"testing"

	"matchsim/internal/gen"
	"matchsim/internal/graph"
	"matchsim/internal/xrand"
)

// randomFloatInstance builds an instance with arbitrary float weights —
// the regime where the streaming accumulator and the canonical Exec can
// differ by rounding, bounded at 1e-9 relative.
func randomFloatInstance(t *testing.T, rng *xrand.RNG, tasks, resources int) *Evaluator {
	t.Helper()
	w := make([]float64, tasks)
	for i := range w {
		w[i] = rng.Float64()*9 + 0.5
	}
	tig := graph.NewTIGWithWeights(w)
	for i := 0; i < tasks; i++ {
		for j := i + 1; j < tasks; j++ {
			if rng.Float64() < 0.3 {
				tig.MustAddEdge(i, j, rng.Float64()*50+1)
			}
		}
	}
	costs := make([]float64, resources)
	for i := range costs {
		costs[i] = rng.Float64()*4 + 0.5
	}
	rg := graph.NewResourceGraphWithCosts(costs)
	for i := 0; i < resources; i++ {
		for j := i + 1; j < resources; j++ {
			rg.MustAddLink(i, j, rng.Float64()*10+0.5)
		}
	}
	e, err := NewEvaluator(tig, rg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randomPermutation(rng *xrand.RNG, n int) Mapping {
	m := make(Mapping, n)
	rng.PermInto(m)
	return m
}

func randomManyToOne(rng *xrand.RNG, tasks, resources int) Mapping {
	m := make(Mapping, tasks)
	for i := range m {
		m[i] = rng.Intn(resources)
	}
	return m
}

func relDiff(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}

// TestStreamScorerMatchesExec: the edge-list sweep must agree with the
// canonical evaluator on float-weight instances, for both bijective and
// many-to-one mappings, across sizes.
func TestStreamScorerMatchesExec(t *testing.T) {
	rng := xrand.New(31)
	for _, n := range []int{4, 16, 64} {
		// Bijective: |Vt| = |Vr| = n.
		e := randomFloatInstance(t, rng, n, n)
		ss := NewStreamScorer(e)
		for trial := 0; trial < 100; trial++ {
			m := randomPermutation(rng, n)
			got := ss.ScoreMapping(m)
			if want := e.Exec(m); relDiff(got, want) > 1e-9 {
				t.Fatalf("n=%d bijective trial %d: stream %v vs exec %v", n, trial, got, want)
			}
		}
		// Many-to-one: fewer resources than tasks.
		r := n/2 + 1
		e2 := randomFloatInstance(t, rng, n, r)
		ss2 := NewStreamScorer(e2)
		for trial := 0; trial < 100; trial++ {
			m := randomManyToOne(rng, n, r)
			got := ss2.ScoreMapping(m)
			if want := e2.Exec(m); relDiff(got, want) > 1e-9 {
				t.Fatalf("n=%d many-to-one trial %d: stream %v vs exec %v", n, trial, got, want)
			}
		}
	}
}

// TestStreamScorerExactOnPaperInstances: the Section 5.2 generator draws
// every weight from small integer ranges, so all load sums are exact in
// float64 regardless of accumulation order — the sweep's score must be
// bit-identical to Exec there.
func TestStreamScorerExactOnPaperInstances(t *testing.T) {
	rng := xrand.New(32)
	for _, n := range []int{10, 20, 50} {
		inst, err := gen.PaperInstance(uint64(n), n, gen.DefaultPaperConfig())
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEvaluator(inst.TIG, inst.Platform)
		if err != nil {
			t.Fatal(err)
		}
		ss := NewStreamScorer(e)
		for trial := 0; trial < 50; trial++ {
			m := randomPermutation(rng, n)
			if got, want := ss.ScoreMapping(m), e.Exec(m); got != want {
				t.Fatalf("n=%d trial %d: stream %v != exec %v (must be bit-identical)", n, trial, got, want)
			}
		}
	}
}

// TestStreamScorerReuse: a scorer must be reusable across draws without
// leaking state from earlier ones — including draws it pruned, whose
// sweep stopped with partial loads.
func TestStreamScorerReuse(t *testing.T) {
	rng := xrand.New(34)
	e := randomFloatInstance(t, rng, 12, 12)
	ss := NewStreamScorer(e)
	scratch := make([]float64, 12)
	for trial := 0; trial < 200; trial++ {
		if trial%2 == 0 {
			ss.SetGamma(0) // prunes every draw with positive load
			ss.ScoreMapping(randomPermutation(rng, 12))
			ss.SetGamma(math.Inf(1))
		}
		m := randomPermutation(rng, 12)
		if got, want := ss.ScoreMapping(m), e.ExecInto(m, scratch); got != want {
			t.Fatalf("trial %d: reused scorer drifted: %v vs %v", trial, got, want)
		}
	}
}

// TestExecAfterSwapDeltaMatchesReference: the delta probe must agree with
// the swap-and-revert reference and leave the state untouched, including
// after committed swaps and many-to-one SetTask moves.
func TestExecAfterSwapDeltaMatchesReference(t *testing.T) {
	rng := xrand.New(35)
	for _, n := range []int{4, 16, 64} {
		e := randomFloatInstance(t, rng, n, n)
		st, err := NewState(e, randomPermutation(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 300; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			got := st.ExecAfterSwap(i, j)
			want := st.execAfterSwapBySwapping(i, j)
			if relDiff(got, want) > 1e-9 {
				t.Fatalf("n=%d trial %d swap(%d,%d): delta %v vs reference %v", n, trial, i, j, got, want)
			}
			// Every few probes, commit a mutation so the cached order and
			// loads churn.
			switch trial % 5 {
			case 0:
				st.Swap(rng.Intn(n), rng.Intn(n))
			case 2:
				st.SetTask(rng.Intn(n), rng.Intn(n))
			}
		}
		// The probe must not have corrupted incremental state. Committed
		// swaps accumulate a little float error on their own, so compare
		// with a mixed absolute/relative tolerance.
		fresh := e.Loads(st.Mapping(), nil)
		for r, l := range st.Loads() {
			if math.Abs(l-fresh[r]) > 1e-9*(1+math.Abs(fresh[r])) {
				t.Fatalf("n=%d: load[%d] drifted: %v vs recomputed %v", n, r, l, fresh[r])
			}
		}
	}
}

// TestExecAfterSwapDeltaOnPaperInstance: exact agreement on the integer-
// weight generator output.
func TestExecAfterSwapDeltaOnPaperInstance(t *testing.T) {
	rng := xrand.New(36)
	inst, err := gen.PaperInstance(4, 20, gen.DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(e, randomPermutation(rng, 20))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		i, j := rng.Intn(20), rng.Intn(20)
		if got, want := st.ExecAfterSwap(i, j), st.execAfterSwapBySwapping(i, j); got != want {
			t.Fatalf("trial %d swap(%d,%d): delta %v != reference %v", trial, i, j, got, want)
		}
		if trial%7 == 0 {
			st.Swap(rng.Intn(20), rng.Intn(20))
		}
	}
}

func BenchmarkExecAfterSwap(b *testing.B) {
	inst, err := gen.PaperInstance(2005, 64, gen.DefaultPaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	st, err := NewState(e, randomPermutation(rng, 64))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st.ExecAfterSwap(i%64, (i*7+13)%64)
		}
	})
	b.Run("swap-revert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st.execAfterSwapBySwapping(i%64, (i*7+13)%64)
		}
	})
}

// BenchmarkStreamScore64 scores a fixed draw pool at n = 64 on each path:
// "sweep" with gamma = +Inf (the edge-list sweep), "by-task-unpruned"
// with a finite gamma no draw exceeds (the early-exit path walking every
// task), and "by-task-pruned" with gamma at the pool's median score.
func BenchmarkStreamScore64(b *testing.B) {
	inst, err := gen.PaperInstance(2005, 64, gen.DefaultPaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	pool := make([]Mapping, 256)
	scores := make([]float64, len(pool))
	for i := range pool {
		pool[i] = randomPermutation(rng, 64)
		scores[i] = e.Exec(pool[i])
	}
	sort.Float64s(scores)
	for _, c := range []struct {
		name  string
		gamma float64
	}{
		{"sweep", math.Inf(1)},
		{"by-task-unpruned", math.MaxFloat64},
		{"by-task-pruned", scores[len(scores)/2]},
	} {
		b.Run(c.name, func(b *testing.B) {
			ss := NewStreamScorer(e)
			ss.SetGamma(c.gamma)
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += ss.ScoreMapping(pool[i%len(pool)])
			}
			benchSink = sink
		})
	}
}

var benchSink float64

// TestScoreMappingBitIdenticalToExec: the edge-list sweep performs the
// same float64 additions in the same order as Evaluator.Loads (co-located
// edges add an exact 0.0 through the link diagonal instead of branching),
// so with pruning disabled its score must be bit-identical to ExecInto on
// every instance — arbitrary float weights included.
func TestScoreMappingBitIdenticalToExec(t *testing.T) {
	rng := xrand.New(41)
	for _, n := range []int{4, 16, 64} {
		e := randomFloatInstance(t, rng, n, n)
		ss := NewStreamScorer(e)
		scratch := make([]float64, n)
		for trial := 0; trial < 100; trial++ {
			m := randomPermutation(rng, n)
			got := ss.ScoreMapping(m)
			if want := e.ExecInto(m, scratch); got != want {
				t.Fatalf("n=%d bijective trial %d: sweep %v != exec %v (must be bit-identical)", n, trial, got, want)
			}
			if ss.Pruned() {
				t.Fatalf("n=%d trial %d: pruned with gamma disabled", n, trial)
			}
		}
		r := n/2 + 1
		e2 := randomFloatInstance(t, rng, n, r)
		ss2 := NewStreamScorer(e2)
		scratch2 := make([]float64, r)
		for trial := 0; trial < 100; trial++ {
			m := randomManyToOne(rng, n, r)
			got := ss2.ScoreMapping(m)
			if want := e2.ExecInto(m, scratch2); got != want {
				t.Fatalf("n=%d many-to-one trial %d: sweep %v != exec %v", n, trial, got, want)
			}
		}
	}
}

// TestScoreMappingPruning: with a finite gamma every strictly-over-
// threshold mapping must come back as PrunedScore with the Pruned flag
// set, and every mapping at or under gamma must come back exactly — the
// same bits as the unpruned sweep, since pruning must not perturb the
// accumulation it observes.
func TestScoreMappingPruning(t *testing.T) {
	rng := xrand.New(42)
	e := randomFloatInstance(t, rng, 48, 48)
	exact := NewStreamScorer(e)
	pruned := NewStreamScorer(e)

	const trials = 200
	maps := make([]Mapping, trials)
	scores := make([]float64, trials)
	for i := range maps {
		maps[i] = randomPermutation(rng, 48)
		scores[i] = exact.ScoreMapping(maps[i])
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	gamma := sorted[trials/2] // median: both outcomes well populated

	pruned.SetGamma(gamma)
	kept, cut := 0, 0
	for i, m := range maps {
		got := pruned.ScoreMapping(m)
		if scores[i] > gamma {
			cut++
			if got != PrunedScore || !pruned.Pruned() {
				t.Fatalf("trial %d: score %v > gamma %v but not pruned (got %v)", i, scores[i], gamma, got)
			}
		} else {
			kept++
			if got != scores[i] {
				t.Fatalf("trial %d: score %v <= gamma %v must return exactly, got %v", i, scores[i], gamma, got)
			}
			if pruned.Pruned() {
				t.Fatalf("trial %d: under-threshold draw flagged pruned", i)
			}
		}
	}
	if kept == 0 || cut == 0 {
		t.Fatalf("degenerate split: %d kept, %d cut", kept, cut)
	}

	// The boundary case: gamma equal to a mapping's exact score must not
	// prune it (the test is strict >).
	for i, m := range maps {
		pruned.SetGamma(scores[i])
		if got := pruned.ScoreMapping(m); got != scores[i] {
			t.Fatalf("trial %d: gamma == score %v was pruned (got %v)", i, scores[i], got)
		}
		break
	}
}

// TestScoreMappingPrunedScoresStayExactOnRescore: a pruned draw re-scored
// with pruning disabled (the CE rescue path) recovers the exact value.
func TestScoreMappingPrunedScoresStayExactOnRescore(t *testing.T) {
	rng := xrand.New(43)
	inst, err := gen.PaperInstance(6, 32, gen.DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStreamScorer(e)
	scratch := make([]float64, 32)
	for trial := 0; trial < 50; trial++ {
		m := randomPermutation(rng, 32)
		want := e.ExecInto(m, scratch)
		ss.SetGamma(want - 1) // integer weights: strictly below the score
		if got := ss.ScoreMapping(m); got != PrunedScore {
			t.Fatalf("trial %d: gamma below score did not prune (got %v)", trial, got)
		}
		ss.SetGamma(math.Inf(1))
		if got := ss.ScoreMapping(m); got != want {
			t.Fatalf("trial %d: rescore %v != exact %v", trial, got, want)
		}
	}
}

// TestScoreMappingByTaskOrderSensitive: the task-by-task path must add a
// task's charges in edge-list order, not neighbour-id order. Task 0's
// edges carry 1e16 beside 1.0 and are inserted out of id order, so the
// two orders round to different loads; with a finite gamma above the
// makespan, ScoreMapping must still match ExecInto bit for bit on every
// permutation.
func TestScoreMappingByTaskOrderSensitive(t *testing.T) {
	tig := graph.NewTIGWithWeights([]float64{1, 1, 1, 1})
	tig.MustAddEdge(0, 3, 1)
	tig.MustAddEdge(0, 1, 1e16)
	tig.MustAddEdge(2, 1, 1)
	tig.MustAddEdge(0, 2, 1)
	rg := graph.NewResourceGraphWithCosts([]float64{1, 1, 1, 1})
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			rg.MustAddLink(a, b, 1)
		}
	}
	e, err := NewEvaluator(tig, rg)
	if err != nil {
		t.Fatal(err)
	}
	// The instance really is order-sensitive: summing task 0's charges
	// in neighbour-id order gives a different float than the edge list.
	m := Identity(4)
	byID := e.ComputeTime(0, 0)
	for _, nb := range tig.Neighbors(0) {
		byID += nb.Weight * rg.LinkCost(0, nb.To)
	}
	if loads := e.Loads(m, nil); byID == loads[0] {
		t.Fatalf("neighbour-id order sums to the edge-list load %v; the test needs an order-sensitive instance", byID)
	}

	ss := NewStreamScorer(e)
	scratch := make([]float64, 4)
	var perm func(k int)
	perm = func(k int) {
		if k == len(m) {
			want := e.ExecInto(m, scratch)
			ss.SetGamma(2 * want)
			if got := ss.ScoreMapping(m); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("mapping %v: by-task score %v != ExecInto %v", m, got, want)
			}
			return
		}
		for i := k; i < len(m); i++ {
			m[k], m[i] = m[i], m[k]
			perm(k + 1)
			m[k], m[i] = m[i], m[k]
		}
	}
	perm(0)
}

// TestScoreMappingByTaskShuffledEdges: on float-weight instances whose
// edges are inserted in shuffled order, the task-by-task path (finite
// gamma) must return ExecInto's bits for every draw at or under gamma
// and prune exactly the draws over it.
func TestScoreMappingByTaskShuffledEdges(t *testing.T) {
	rng := xrand.New(44)
	for _, n := range []int{5, 16, 48} {
		src := randomFloatInstance(t, rng, n, n)
		edges := src.TIG().Edges()
		shuffled := make([]int, len(edges))
		rng.PermInto(shuffled)
		tig := graph.NewTIGWithWeights(src.TIG().Weights)
		for _, i := range shuffled {
			ed := edges[i]
			if ed.U < ed.V && rng.Bool(0.5) {
				ed.U, ed.V = ed.V, ed.U
			}
			tig.MustAddEdge(ed.U, ed.V, ed.Weight)
		}
		e, err := NewEvaluator(tig, src.Platform())
		if err != nil {
			t.Fatal(err)
		}
		ss := NewStreamScorer(e)
		scratch := make([]float64, n)
		for trial := 0; trial < 200; trial++ {
			m := randomPermutation(rng, n)
			want := e.ExecInto(m, scratch)
			gamma := want * (0.9 + 0.2*rng.Float64())
			ss.SetGamma(gamma)
			got := ss.ScoreMapping(m)
			if want > gamma {
				if got != PrunedScore || !ss.Pruned() {
					t.Fatalf("n=%d trial %d: exec %v > gamma %v not pruned (got %v)", n, trial, want, gamma, got)
				}
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) || ss.Pruned() {
				t.Fatalf("n=%d trial %d: by-task score %v (pruned %v) != ExecInto %v", n, trial, got, ss.Pruned(), want)
			}
		}
	}
}

// TestScoreMappingSkippedEdges: a pruned draw reports as skipped exactly
// the incident-list entries (degrees) of the tasks after the first one,
// in heavy-first order, whose load exceeds gamma; unpruned draws report
// none. The expectation is rebuilt from Evaluator.Loads and the graph's
// degrees, independent of the scorer's prefix sums.
func TestScoreMappingSkippedEdges(t *testing.T) {
	rng := xrand.New(45)
	e := randomFloatInstance(t, rng, 32, 32)
	tig := e.TIG()
	rank := func(t int) float64 { return tig.Weights[t] + tig.WeightedDegree(t) }
	order := make([]int, 32)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rank(order[a]) > rank(order[b]) })

	ss := NewStreamScorer(e)
	sawSkip := false
	for trial := 0; trial < 300; trial++ {
		m := randomPermutation(rng, 32)
		loads := e.Loads(m, nil)
		exec := e.Exec(m)
		gamma := exec * (0.5 + 0.6*rng.Float64())
		ss.SetGamma(gamma)
		ss.ScoreMapping(m)
		want := 0
		if exec > gamma {
			k := 0
			for loads[m[order[k]]] <= gamma {
				k++
			}
			for _, t := range order[k+1:] {
				want += tig.Degree(t)
			}
		}
		if got := ss.SkippedEdges(); got != want {
			t.Fatalf("trial %d: SkippedEdges %d, want %d", trial, got, want)
		}
		sawSkip = sawSkip || want > 0
	}
	if !sawSkip {
		t.Fatal("no draw skipped any entry; the test exercised nothing")
	}
}
