package main

import (
	"bytes"
	"math/rand/v2"
	"strconv"

	"matchsim"
)

// newRNG returns the benchmark's deterministic generator for one input
// stream: every workload input derives from (workload seed, stream).
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// paperInstance renders the paper's Section 5.2 random instance of n
// tasks (dense TIG, |Vt| = |Vr| = n) as instance JSON — the wire form
// that ReadProblem and the daemon's job submissions accept.
func paperInstance(seed uint64, n int) ([]byte, error) {
	p, err := matchsim.GeneratePaper(seed, n)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := p.WriteInstance(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sparseHierInstance renders an n-task sparse instance over a two-level
// cluster platform as instance JSON:
//
//   - TIG: a random spanning tree plus random extra edges up to a mean
//     degree of avgDegree, task weights uniform in [1, 10] and edge
//     weights uniform in [50, 100] (the paper's Section 5.2 ranges);
//   - platform: n resources with processing costs uniform in [1, 5],
//     split into n/64 contiguous clusters; each cluster has one link cost
//     uniform in [10, 20] and each cluster pair one cost of 4x a draw
//     from the same range, carried as a dense link matrix.
//
// A dense link matrix is the only public way to state a 2048-resource
// platform: NewPlatform + AddLink would take n^2/2 calls.
func sparseHierInstance(seed uint64, n, avgDegree int) []byte {
	rng := newRNG(seed, 0x5a)
	intIn := func(lo, hi int) int { return lo + rng.IntN(hi-lo+1) }

	type edge struct{ u, v, w int }
	seen := make(map[[2]int]bool, n*avgDegree/2+n)
	var edges []edge
	add := func(u, v int) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			return false
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, edge{u, v, intIn(50, 100)})
		return true
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		add(perm[i], perm[rng.IntN(i)])
	}
	for target := n * avgDegree / 2; len(edges) < target; {
		add(rng.IntN(n), rng.IntN(n))
	}

	clusters := max(2, n/64)
	intra := make([]int, clusters)
	inter := make([]int, clusters*clusters)
	for a := 0; a < clusters; a++ {
		intra[a] = intIn(10, 20)
		for b := a + 1; b < clusters; b++ {
			c := 4 * intIn(10, 20)
			inter[a*clusters+b], inter[b*clusters+a] = c, c
		}
	}

	b := make([]byte, 0, 4*n*n+64*n)
	b = append(b, `{"tig":{"kind":"tig","n":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"weights":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(intIn(1, 10)), 10)
	}
	b = append(b, `],"edges":[`...)
	for i, e := range edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"u":`...)
		b = strconv.AppendInt(b, int64(e.u), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, int64(e.v), 10)
		b = append(b, `,"w":`...)
		b = strconv.AppendInt(b, int64(e.w), 10)
		b = append(b, '}')
	}
	b = append(b, `]},"platform":{"kind":"resource","n":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"costs":[`...)
	for s := 0; s < n; s++ {
		if s > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(intIn(1, 5)), 10)
	}
	b = append(b, `],"links":[],"closed":false,"dense_link":[`...)
	for s := 0; s < n; s++ {
		cs := s * clusters / n
		for t := 0; t < n; t++ {
			if s > 0 || t > 0 {
				b = append(b, ',')
			}
			ct := t * clusters / n
			c := 0
			switch {
			case s == t:
			case cs == ct:
				c = intra[cs]
			default:
				c = inter[cs*clusters+ct]
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
	}
	return append(b, "]}}"...)
}
