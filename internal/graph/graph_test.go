package graph

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"matchsim/internal/xrand"
)

func TestAddEdgeAndQueries(t *testing.T) {
	g := NewUndirected(4)
	g.MustAddEdge(0, 1, 2.5)
	g.MustAddEdge(2, 1, 3)
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) missing in one direction")
	}
	if g.HasEdge(0, 2) || g.HasEdge(3, 3) {
		t.Fatal("phantom edge")
	}
	if w, ok := g.EdgeWeight(1, 2); !ok || w != 3 {
		t.Fatalf("EdgeWeight(1,2) = %v,%v", w, ok)
	}
	if _, ok := g.EdgeWeight(0, 3); ok {
		t.Fatal("EdgeWeight on missing edge reported ok")
	}
}

func TestAddEdgeRejections(t *testing.T) {
	g := NewUndirected(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if err := g.AddEdge(-1, 1, 1); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	if err := g.AddEdge(0, 1, -2); err == nil {
		t.Fatal("negative weight accepted")
	}
	g.MustAddEdge(0, 1, 1)
	if err := g.AddEdge(1, 0, 2); err == nil {
		t.Fatal("duplicate (reversed) edge accepted")
	}
}

// TestAddEdgeRejectsDuplicates: a repeated edge is refused in either
// orientation, with the same error, whether or not the adjacency was
// built between the two adds, and also on a clone.
func TestAddEdgeRejectsDuplicates(t *testing.T) {
	for _, between := range []string{"none", "neighbors", "neighbors+add", "clone"} {
		for _, dup := range [][2]int{{0, 1}, {1, 0}, {2, 1}, {1, 2}} {
			g := NewUndirected(5)
			g.MustAddEdge(0, 1, 1)
			g.MustAddEdge(2, 1, 1)
			switch between {
			case "neighbors":
				g.Neighbors(1)
			case "neighbors+add":
				g.Neighbors(0)
				g.MustAddEdge(3, 4, 1)
			case "clone":
				g = g.Clone()
			}
			err := g.AddEdge(dup[0], dup[1], 2)
			want := fmt.Sprintf("graph: duplicate edge (%d,%d)", dup[0], dup[1])
			if err == nil || err.Error() != want {
				t.Fatalf("%s: AddEdge%v = %v, want %q", between, dup, err, want)
			}
			if g.HasEdge(0, 2) || !g.HasEdge(dup[1], dup[0]) {
				t.Fatalf("%s: HasEdge wrong after rejected duplicate", between)
			}
		}
	}
}

// BenchmarkAddEdge builds graphs of mean degree 8 at growing sizes. Its
// ns/edge stays flat as the edge count grows: the duplicate check of each
// add costs O(min degree), not a scan of the edge list.
func BenchmarkAddEdge(b *testing.B) {
	for _, m := range []int{1 << 10, 1 << 13, 1 << 16} {
		n := m / 4
		b.Run(fmt.Sprintf("edges=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := NewUndirected(n)
				for k := 0; k < m; k++ {
					u := k % n
					g.MustAddEdge(u, (u+1+k/n)%n, 1)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/edge")
		})
	}
}

func TestNeighborsSortedAndComplete(t *testing.T) {
	g := NewUndirected(5)
	g.MustAddEdge(3, 0, 1)
	g.MustAddEdge(0, 4, 2)
	g.MustAddEdge(1, 0, 3)
	nbs := g.Neighbors(0)
	if len(nbs) != 3 {
		t.Fatalf("deg(0)=%d", len(nbs))
	}
	want := []Neighbor{{1, 3}, {3, 1}, {4, 2}}
	for i, nb := range nbs {
		if nb != want[i] {
			t.Fatalf("Neighbors(0)[%d] = %v, want %v", i, nb, want[i])
		}
	}
	if g.Degree(2) != 0 {
		t.Fatalf("deg(2)=%d", g.Degree(2))
	}
}

func TestNeighborsAfterMutation(t *testing.T) {
	g := NewUndirected(4)
	g.MustAddEdge(0, 1, 1)
	if g.Degree(0) != 1 {
		t.Fatal("degree before mutation")
	}
	g.MustAddEdge(0, 2, 1)
	if g.Degree(0) != 2 {
		t.Fatal("adjacency not rebuilt after AddEdge")
	}
}

func TestWeightedDegreeAndTotals(t *testing.T) {
	g := NewUndirected(3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 5)
	if got := g.WeightedDegree(1); got != 7 {
		t.Fatalf("WeightedDegree(1)=%v", got)
	}
	if got := g.TotalEdgeWeight(); got != 7 {
		t.Fatalf("TotalEdgeWeight=%v", got)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewUndirected(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(4, 5, 1)
	ids, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count=%d", count)
	}
	if ids[0] != ids[1] || ids[1] != ids[2] {
		t.Fatalf("component split: %v", ids)
	}
	if ids[3] == ids[0] || ids[4] != ids[5] || ids[4] == ids[3] {
		t.Fatalf("bad ids: %v", ids)
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1)
	if !g.IsConnected() {
		t.Fatal("connected graph reported disconnected")
	}
}

func TestIsConnectedTrivial(t *testing.T) {
	if !NewUndirected(0).IsConnected() || !NewUndirected(1).IsConnected() {
		t.Fatal("trivial graphs must be connected")
	}
	if NewUndirected(2).IsConnected() {
		t.Fatal("two isolated vertices reported connected")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := NewUndirected(3)
	g.MustAddEdge(0, 1, 1)
	c := g.Clone()
	c.MustAddEdge(1, 2, 1)
	if g.M() != 1 || c.M() != 2 {
		t.Fatalf("clone aliases original: g.M=%d c.M=%d", g.M(), c.M())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := NewUndirected(3)
	g.MustAddEdge(0, 1, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.edges = append(g.edges, Edge{U: 0, V: 0, Weight: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("self-loop not caught")
	}
	g.edges = g.edges[:1]
	g.edges = append(g.edges, Edge{U: 1, V: 0, Weight: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("duplicate edge not caught")
	}
}

func TestTIGBasics(t *testing.T) {
	tig := NewTIGWithWeights([]float64{1, 2, 3})
	tig.MustAddEdge(0, 1, 10)
	tig.MustAddEdge(1, 2, 20)
	if tig.NumTasks() != 3 {
		t.Fatalf("NumTasks=%d", tig.NumTasks())
	}
	if got := tig.TotalWork(); got != 6 {
		t.Fatalf("TotalWork=%v", got)
	}
	if got := tig.TotalCommunication(); got != 30 {
		t.Fatalf("TotalCommunication=%v", got)
	}
	if got := tig.CommToCompRatio(); got != 5 {
		t.Fatalf("CommToCompRatio=%v", got)
	}
	if err := tig.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTIGValidateCatchesBadWeights(t *testing.T) {
	tig := NewTIGWithWeights([]float64{1, -2})
	if err := tig.Validate(); err == nil {
		t.Fatal("negative task weight accepted")
	}
	tig2 := NewTIG(2)
	tig2.Weights = tig2.Weights[:1]
	if err := tig2.Validate(); err == nil {
		t.Fatal("weight/vertex count mismatch accepted")
	}
}

func TestTIGClone(t *testing.T) {
	tig := NewTIGWithWeights([]float64{1, 2})
	tig.MustAddEdge(0, 1, 5)
	c := tig.Clone()
	c.Weights[0] = 99
	if tig.Weights[0] != 1 {
		t.Fatal("clone aliases weights")
	}
}

func TestResourceGraphLinks(t *testing.T) {
	r := NewResourceGraphWithCosts([]float64{1, 2, 3})
	r.MustAddLink(0, 1, 4)
	if got := r.LinkCost(0, 1); got != 4 {
		t.Fatalf("LinkCost(0,1)=%v", got)
	}
	if got := r.LinkCost(1, 0); got != 4 {
		t.Fatalf("LinkCost(1,0)=%v", got)
	}
	if got := r.LinkCost(1, 1); got != 0 {
		t.Fatalf("diagonal LinkCost=%v", got)
	}
	if !math.IsInf(r.LinkCost(0, 2), 1) {
		t.Fatal("missing link should be +Inf before CloseLinks")
	}
	if r.FullyLinked() {
		t.Fatal("sparse platform reported fully linked")
	}
}

func TestCloseLinksRoutesCheapestPath(t *testing.T) {
	// Path 0-1-2 with costs 4 and 5 plus an expensive direct 0-2 link.
	r := NewResourceGraphWithCosts([]float64{1, 1, 1})
	r.MustAddLink(0, 1, 4)
	r.MustAddLink(1, 2, 5)
	r.MustAddLink(0, 2, 100)
	if err := r.CloseLinks(); err != nil {
		t.Fatal(err)
	}
	if got := r.LinkCost(0, 2); got != 9 {
		t.Fatalf("routed cost 0->2 = %v, want 9 via resource 1", got)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseLinksDisconnected(t *testing.T) {
	r := NewResourceGraphWithCosts([]float64{1, 1, 1})
	r.MustAddLink(0, 1, 1)
	if err := r.CloseLinks(); err == nil {
		t.Fatal("disconnected platform closed without error")
	}
}

func TestResourceValidateCatchesAsymmetry(t *testing.T) {
	r := NewResourceGraphWithCosts([]float64{1, 1})
	r.MustAddLink(0, 1, 3)
	r.link[0*2+1] = 5 // corrupt one direction
	if err := r.Validate(); err == nil {
		t.Fatal("asymmetric link matrix accepted")
	}
}

func TestResourceClone(t *testing.T) {
	r := NewResourceGraphWithCosts([]float64{1, 2})
	r.MustAddLink(0, 1, 3)
	c := r.Clone()
	c.Costs[0] = 50
	c.link[1] = 99
	if r.Costs[0] != 1 || r.LinkCost(0, 1) != 3 {
		t.Fatal("clone aliases platform state")
	}
}

func TestCloseLinksPropertyTriangleInequality(t *testing.T) {
	rng := xrand.New(123)
	f := func(seed uint64) bool {
		n := 4 + int(seed%6)
		r := NewResourceGraph(n)
		local := xrand.New(seed)
		// Random connected topology: random spanning path + extra edges.
		perm := local.Perm(n)
		for i := 1; i < n; i++ {
			r.MustAddLink(perm[i-1], perm[i], local.Float64Range(1, 10))
		}
		for k := 0; k < n; k++ {
			u, v := local.Intn(n), local.Intn(n)
			if u != v && !r.HasEdge(u, v) {
				r.MustAddLink(u, v, local.Float64Range(1, 10))
			}
		}
		if err := r.CloseLinks(); err != nil {
			return false
		}
		// Closed costs must satisfy the triangle inequality.
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					if r.LinkCost(a, b) > r.LinkCost(a, c)+r.LinkCost(c, b)+1e-9 {
						return false
					}
				}
			}
		}
		return r.Validate() == nil
	}
	if err := quick.Check(func(s uint64) bool { return f(rng.Uint64() ^ s) }, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
