// Package matchsim is the public API of the MaTCH reproduction: mapping
// the interacting tasks of a data-parallel application (a Task
// Interaction Graph) onto a heterogeneous computing platform so that the
// application execution time — the makespan of eqs. (1)-(2) of the paper
// — is minimised.
//
// The primary solver is MaTCH, the Cross-Entropy heuristic of Sanyal &
// Das (IPDPS 2005); the package also exposes the paper's FastMap-GA
// baseline, a distributed agent-based MaTCH (the paper's future work),
// and a set of classic baselines (random search, greedy, local search,
// simulated annealing).
//
// Quick start:
//
//	problem, _ := matchsim.GeneratePaper(42, 20)   // synthetic instance
//	sol, _ := matchsim.SolveMaTCH(problem, matchsim.MaTCHOptions{Seed: 1})
//	fmt.Println(sol.Exec, sol.Mapping)
//
// Custom problems are built from a TaskGraph and a Platform:
//
//	tg := matchsim.NewTaskGraph([]float64{4, 2, 7})
//	tg.AddInteraction(0, 1, 55)
//	pf := matchsim.NewPlatform([]float64{1, 2, 1})
//	pf.AddLink(0, 1, 12)
//	pf.AddLink(1, 2, 15)
//	pf.AddLink(0, 2, 11)
//	problem, err := matchsim.NewProblem(tg, pf)
package matchsim

import (
	"fmt"
	"io"

	"matchsim/internal/cost"
	"matchsim/internal/graph"
)

// TaskGraph is the application model: an undirected Task Interaction
// Graph whose vertices are data-parallel tasks weighted by computational
// volume and whose edges carry communication volumes.
type TaskGraph struct {
	tig *graph.TIG
}

// NewTaskGraph creates a task graph with the given per-task computational
// weights (W^t in the paper; e.g. grid points per overset grid).
func NewTaskGraph(weights []float64) *TaskGraph {
	w := append([]float64(nil), weights...)
	return &TaskGraph{tig: graph.NewTIGWithWeights(w)}
}

// AddInteraction declares that tasks i and j exchange `volume` units of
// data per step (C^{i,j} in the paper). Each unordered pair may be
// declared once.
func (t *TaskGraph) AddInteraction(i, j int, volume float64) error {
	return t.tig.AddEdge(i, j, volume)
}

// NumTasks returns the number of tasks.
func (t *TaskGraph) NumTasks() int { return t.tig.NumTasks() }

// SetName labels the graph in experiment artefacts.
func (t *TaskGraph) SetName(name string) { t.tig.Name = name }

// Platform is the heterogeneous system model: resources weighted by
// processing cost per unit of computation, pairwise links weighted by
// communication cost per unit of data.
type Platform struct {
	rg     *graph.ResourceGraph
	closed bool
}

// NewPlatform creates a platform with the given per-resource processing
// costs (w_s in the paper; bigger = slower).
func NewPlatform(costs []float64) *Platform {
	c := append([]float64(nil), costs...)
	return &Platform{rg: graph.NewResourceGraphWithCosts(c)}
}

// AddLink declares a direct communication link between resources a and b
// with the given cost per unit of data (c_{a,b} in the paper).
func (p *Platform) AddLink(a, b int, costPerUnit float64) error {
	return p.rg.AddLink(a, b, costPerUnit)
}

// NumResources returns the number of resources.
func (p *Platform) NumResources() int { return p.rg.NumResources() }

// SetName labels the platform in experiment artefacts.
func (p *Platform) SetName(name string) { p.rg.Name = name }

// Problem binds one TaskGraph to one Platform and precomputes the cost
// model. Problems are immutable and safe for concurrent use by multiple
// solvers.
type Problem struct {
	eval *cost.Evaluator
}

// NewProblem validates the pair and builds the cost evaluator. If the
// platform topology is sparse, link costs between unconnected resources
// are closed over cheapest routes first (store-and-forward routing).
func NewProblem(t *TaskGraph, p *Platform) (*Problem, error) {
	if t == nil || p == nil {
		return nil, fmt.Errorf("matchsim: nil task graph or platform")
	}
	if !p.closed && !p.rg.FullyLinked() {
		if err := p.rg.CloseLinks(); err != nil {
			return nil, fmt.Errorf("matchsim: %w", err)
		}
		p.closed = true
	}
	eval, err := cost.NewEvaluator(t.tig, p.rg)
	if err != nil {
		return nil, err
	}
	return &Problem{eval: eval}, nil
}

// NumTasks returns |Vt|.
func (p *Problem) NumTasks() int { return p.eval.NumTasks() }

// NumResources returns |Vr|.
func (p *Problem) NumResources() int { return p.eval.NumResources() }

// Exec evaluates the application execution time of an arbitrary mapping
// (mapping[task] = resource): eqs. (1)-(2) of the paper.
func (p *Problem) Exec(mapping []int) (float64, error) {
	m := cost.Mapping(mapping)
	if len(m) != p.eval.NumTasks() {
		return 0, fmt.Errorf("matchsim: mapping length %d for %d tasks", len(m), p.eval.NumTasks())
	}
	if err := m.Validate(p.eval.NumResources()); err != nil {
		return 0, err
	}
	return p.eval.Exec(m), nil
}

// LoadBreakdown decomposes a mapping's cost per resource.
type LoadBreakdown struct {
	// Compute[s] and Comm[s] are resource s's processing and
	// communication components; Loads[s] is their sum.
	Compute, Comm, Loads []float64
	// Exec is the makespan, attained at resource Busiest.
	Exec    float64
	Busiest int
	// Imbalance is Exec over the mean load (1.0 = perfectly balanced).
	Imbalance float64
}

// Explain returns the full per-resource cost breakdown of a mapping.
func (p *Problem) Explain(mapping []int) (*LoadBreakdown, error) {
	m := cost.Mapping(mapping)
	if len(m) != p.eval.NumTasks() {
		return nil, fmt.Errorf("matchsim: mapping length %d for %d tasks", len(m), p.eval.NumTasks())
	}
	if err := m.Validate(p.eval.NumResources()); err != nil {
		return nil, err
	}
	b := p.eval.Explain(m)
	return &LoadBreakdown{
		Compute:   b.Compute,
		Comm:      b.Comm,
		Loads:     b.Loads,
		Exec:      b.Exec,
		Busiest:   b.Busiest,
		Imbalance: b.Imbalance,
	}, nil
}

// evaluator exposes the internal evaluator to the solver wrappers.
func (p *Problem) evaluator() *cost.Evaluator { return p.eval }

// WriteInstance serialises the problem's graphs as JSON for the CLIs.
func (p *Problem) WriteInstance(w io.Writer) error {
	return graph.WriteInstance(w, &graph.Instance{TIG: p.eval.TIG(), Platform: p.eval.Platform()})
}

// ReadProblem parses a JSON instance previously written by WriteInstance
// or produced by the matchgen CLI. It reads r to the end and decodes the
// first JSON value; bytes after that value are ignored. The decoder
// accepts exactly the documents encoding/json accepted for this format,
// to bit-identical graphs: keys match case-insensitively, the last of a
// repeated key wins, null leaves a number, string or bool as it was and
// clears a list or graph, unknown keys are skipped if their values are
// valid JSON, and n, u, v and seed take integers only (see
// graph.ReadInstance).
func ReadProblem(r io.Reader) (*Problem, error) {
	inst, err := graph.ReadInstance(r)
	if err != nil {
		return nil, err
	}
	eval, err := cost.NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		return nil, err
	}
	return &Problem{eval: eval}, nil
}
