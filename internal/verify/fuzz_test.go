package verify

import (
	"testing"

	"matchsim/internal/cost"
	"matchsim/internal/graph"
	"matchsim/internal/xrand"
)

// FuzzScoreMapping is the differential fuzz target: for a fuzzer-chosen
// instance, mapping and gamma, the optimised gamma-pruned streaming
// scorer must agree with the naive eqs. (1)-(2) oracle — bit-identically
// when it scores, and it must prune exactly the draws whose oracle exec
// is above gamma. Three arms share each input: the paper instance under
// a permutation, a float-weight instance whose TIG edges were inserted
// in shuffled order (the task-by-task path must keep edge-list order),
// and a many-to-one mapping onto fewer resources than tasks (the sweep).
func FuzzScoreMapping(f *testing.F) {
	f.Add(uint64(1), 8, int64(1000), []byte{0})
	f.Add(uint64(7), 4, int64(500), []byte{3, 1, 2, 0})
	f.Add(uint64(42), 24, int64(2000), []byte{0xff, 0x10, 7})
	f.Add(uint64(3), 1, int64(0), []byte{})
	f.Add(uint64(99), 16, int64(990), []byte{9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, seed uint64, n int, gammaMilli int64, permBytes []byte) {
		n = 1 + (abs(n) % 32) // clamp to the supported band
		// gammaMilli in [0, 2000] sweeps gamma from 0 to 2x the true exec.
		factor := float64(abs64(gammaMilli)%2001) / 1000
		pick := func(i, mod int) int {
			if len(permBytes) == 0 {
				return 0
			}
			return int(permBytes[i%len(permBytes)]) % mod
		}

		// Lehmer-style decode: permBytes picks from the shrinking free
		// list, so every byte string maps to a valid permutation.
		free := make([]int, n)
		for i := range free {
			free[i] = i
		}
		m := make([]int, n)
		for tsk := 0; tsk < n; tsk++ {
			p := pick(tsk, len(free))
			m[tsk] = free[p]
			free = append(free[:p], free[p+1:]...)
		}
		if err := CheckPermutation(m); err != nil {
			t.Fatalf("decoder emitted an invalid mapping: %v", err)
		}

		tig, platform, eval := paperInstance(t, seed, n)
		checkScoreMapping(t, "paper", tig, platform, eval, m, factor)

		ftig, fplatform, _ := floatInstance(t, seed, n)
		stig := shuffledEdges(ftig, xrand.New(seed^0x5eed))
		seval, err := cost.NewEvaluator(stig, fplatform)
		if err != nil {
			t.Fatalf("NewEvaluator (shuffled): %v", err)
		}
		checkScoreMapping(t, "shuffled-edges", stig, fplatform, seval, m, factor)

		if n >= 2 {
			r := (n + 1) / 2
			_, small, _ := paperInstance(t, seed+1, r)
			meval, err := cost.NewEvaluator(tig, small)
			if err != nil {
				t.Fatalf("NewEvaluator (many-to-one): %v", err)
			}
			many := make([]int, n)
			for tsk := range many {
				many[tsk] = (tsk + pick(tsk, r)) % r
			}
			checkScoreMapping(t, "many-to-one", tig, small, meval, many, factor)
		}
	})
}

// checkScoreMapping scores m unpruned and at gamma = factor x oracle
// exec, requiring the oracle's bits when the scorer scores and pruned
// exactly when the oracle exec is above gamma.
func checkScoreMapping(t *testing.T, arm string, tig *graph.TIG, platform *graph.ResourceGraph, eval *cost.Evaluator, m []int, factor float64) {
	t.Helper()
	refExec, err := RefExec(tig, platform, m)
	if err != nil {
		t.Fatalf("%s: RefExec: %v", arm, err)
	}
	ss := cost.NewStreamScorer(eval)
	if got := ss.ScoreMapping(m); !sameBits(got, refExec) {
		t.Fatalf("%s: unpruned ScoreMapping %v != oracle %v (m=%v)", arm, got, refExec, m)
	}
	gamma := refExec * factor
	ss.SetGamma(gamma)
	got := ss.ScoreMapping(m)
	if want := refExec > gamma; ss.Pruned() != want || (got == cost.PrunedScore) != want {
		t.Fatalf("%s: at gamma=%v pruned=%v (score %v), oracle exec %v (m=%v)", arm, gamma, ss.Pruned(), got, refExec, m)
	}
	if !ss.Pruned() && !sameBits(got, refExec) {
		t.Fatalf("%s: ScoreMapping %v != oracle %v at gamma=%v (m=%v)", arm, got, refExec, gamma, m)
	}
}

// shuffledEdges returns a copy of tig whose edges were inserted in an
// rng-chosen order, each with a coin-flipped endpoint order.
func shuffledEdges(tig *graph.TIG, rng *xrand.RNG) *graph.TIG {
	edges := tig.Edges()
	order := make([]int, len(edges))
	rng.PermInto(order)
	out := graph.NewTIGWithWeights(tig.Weights)
	for _, i := range order {
		u, v := edges[i].U, edges[i].V
		if rng.Bool(0.5) {
			u, v = v, u
		}
		out.MustAddEdge(u, v, edges[i].Weight)
	}
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
