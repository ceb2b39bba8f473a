package stochmat

import (
	"math"
	"testing"

	"matchsim/internal/xrand"
)

// testMatrices builds the regimes the samplers see over a CE run: uniform
// (iteration 0), random row-stochastic (mid-run), sparse (a truncated
// update has zeroed some entries, so the alias table is support-compacted)
// and near-degenerate (close to the eq. 12 stop).
func testMatrices(t *testing.T, rng *xrand.RNG, n int) map[string]*Matrix {
	t.Helper()
	random := NewUniform(n, n)
	sparse := NewUniform(n, n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64() + 1e-3
		}
		if err := random.SetRow(i, row); err != nil {
			t.Fatal(err)
		}
		for j := range row {
			if (i+j)%3 == 0 {
				row[j] = 0
			}
		}
		if err := sparse.SetRow(i, row); err != nil {
			t.Fatal(err)
		}
	}
	degen := NewUniform(n, n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = 1e-4
		}
		row[(i*7+3)%n] = 1
		if err := degen.SetRow(i, row); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*Matrix{
		"uniform":         NewUniform(n, n),
		"random":          random,
		"sparse":          sparse,
		"near-degenerate": degen,
	}
}

// TestFastSamplerValidAndDeterministic: the rejection sampler must always
// emit permutations and be reproducible for a fixed RNG stream.
func TestFastSamplerValidAndDeterministic(t *testing.T) {
	setup := xrand.New(5)
	for _, n := range []int{4, 16, 64} {
		for name, m := range testMatrices(t, setup, n) {
			at := NewAliasTable(m)
			rngA, rngB := xrand.New(7), xrand.New(7)
			sa, sb := NewSampler(n), NewSampler(n)
			da, db := make([]int, n), make([]int, n)
			for draw := 0; draw < 100; draw++ {
				if err := sa.SamplePermutationFast(m, at, rngA, da); err != nil {
					t.Fatal(err)
				}
				if !isPermutation(da) {
					t.Fatalf("n=%d %s draw %d: not a permutation: %v", n, name, draw, da)
				}
				if err := sb.SamplePermutationFast(m, at, rngB, db); err != nil {
					t.Fatal(err)
				}
				for i := range da {
					if da[i] != db[i] {
						t.Fatalf("n=%d %s draw %d: same seed diverged: %v vs %v", n, name, draw, da, db)
					}
				}
			}
		}
	}
	if err := NewSampler(4).SamplePermutationFast(NewUniform(4, 4), nil, xrand.New(1), make([]int, 4)); err == nil {
		t.Fatal("nil alias table accepted")
	}
}

// TestFastSamplerFrequencies: rejection-with-exact-fallback samples the
// exact GenPerm distribution, so per-(task, col) assignment frequencies
// must agree with the linear reference within sampling noise — on a dense
// row-stochastic matrix and on a support-compacted sparse one.
func TestFastSamplerFrequencies(t *testing.T) {
	if testing.Short() {
		t.Skip("frequency comparison needs many draws")
	}
	n := 6
	setup := xrand.New(6)
	mats := testMatrices(t, setup, n)
	const draws = 40000
	for _, name := range []string{"random", "sparse"} {
		m := mats[name]
		at := NewAliasTable(m)
		count := func(sample func(rng *xrand.RNG, dst []int) error, seed uint64) [][]float64 {
			freq := make([][]float64, n)
			for i := range freq {
				freq[i] = make([]float64, n)
			}
			rng := xrand.New(seed)
			dst := make([]int, n)
			for d := 0; d < draws; d++ {
				if err := sample(rng, dst); err != nil {
					t.Fatal(err)
				}
				for task, col := range dst {
					freq[task][col] += 1.0 / draws
				}
			}
			return freq
		}
		sLin, sFast := NewSampler(n), NewSampler(n)
		linear := count(func(rng *xrand.RNG, dst []int) error {
			return sLin.SamplePermutation(m, rng, dst)
		}, 21)
		fast := count(func(rng *xrand.RNG, dst []int) error {
			return sFast.SamplePermutationFast(m, at, rng, dst)
		}, 22)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if diff := math.Abs(linear[i][j] - fast[i][j]); diff > 0.02 {
					t.Fatalf("%s frequency(%d,%d): linear %.4f vs fast %.4f (diff %.4f)",
						name, i, j, linear[i][j], fast[i][j], diff)
				}
			}
		}
	}
}
