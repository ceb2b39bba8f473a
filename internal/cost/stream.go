package cost

import "math"

// StreamScorer evaluates the execution-time model of eqs. (1)-(2) for the
// CE sample-and-score loop. ScoreMapping takes one of two exact paths:
//
//   - Task by task, when a finite gamma is installed and the mapping puts
//     at most one task on each resource (a GenPerm draw once the CE loop
//     has an elite threshold). Each resource's load is then one task's
//     charges, so the scorer sums them in a register, visiting tasks
//     heaviest first (Evaluator's static visit order), and stops at the
//     first load over gamma.
//   - One sweep over the TIG edge list otherwise: many-to-one mappings,
//     and gamma = +Inf (the first CE iteration, an iteration after
//     pruning over-fired, the rescue re-score), where nothing can prune
//     and the sweep is the faster walk.
//
// A StreamScorer holds per-goroutine scratch state: create one per worker
// (or pool them). Not safe for concurrent use.
//
// # Gamma pruning
//
// SetGamma installs an elite threshold. A draw whose makespan exceeds
// gamma can never enter an elite set thresholded at gamma, so
// ScoreMapping returns PrunedScore instead of the true value; callers
// that need exact scores for pruned draws (the CE rescue path) re-score
// the mapping with the threshold at +Inf, which disables pruning. Both
// paths prune exactly the draws whose makespan exceeds gamma and return
// bit-identical scores for the rest.
//
// SkippedEdges is the telemetry unit of the saving: incident-list
// entries (two per TIG edge, one at each endpoint) the task-by-task path
// never visited because it exited early.
type StreamScorer struct {
	// The padding keeps the fields each draw writes off the cache lines
	// of other workers' scorers.
	_    [64]byte
	eval *Evaluator

	// loads holds one accumulated load per resource (sweep path).
	loads []float64
	// mark[s] == stamp when resource s already hosts a task in the
	// current one-task-per-resource check; bumping stamp clears every
	// mark at once.
	mark  []uint32
	stamp uint32

	// Gamma-pruning state. gamma is +Inf when pruning is disabled.
	gamma float64
	// skippedEdges is the incident-list work the last ScoreMapping call
	// avoided by exiting early — the per-draw saving the telemetry layer
	// aggregates into a work-avoided counter.
	skippedEdges int
	pruned       bool
	_            [64]byte
}

// PrunedScore is the pinned score ScoreMapping reports for a draw whose
// true makespan was proven to exceed the installed gamma threshold. It
// compares worse than every real score, so pruned samples sort after all
// exact ones.
var PrunedScore = math.Inf(1)

// NewStreamScorer returns a scorer for mappings evaluated by e.
func NewStreamScorer(e *Evaluator) *StreamScorer {
	return &StreamScorer{
		eval:  e,
		loads: make([]float64, e.r),
		mark:  make([]uint32, e.r),
		gamma: math.Inf(1),
	}
}

// SetGamma installs the pruning threshold (see the type comment); +Inf
// disables pruning. It applies from the next ScoreMapping call onwards.
func (ss *StreamScorer) SetGamma(gamma float64) { ss.gamma = gamma }

// Pruned reports whether the last ScoreMapping call was cut short by the
// gamma threshold.
func (ss *StreamScorer) Pruned() bool { return ss.pruned }

// SkippedEdges reports how many incident-list entries (two per TIG edge)
// the last ScoreMapping call never visited thanks to its early exit: 0
// for unpruned draws and for draws scored by the edge sweep.
func (ss *StreamScorer) SkippedEdges() int { return ss.skippedEdges }

// ScoreMapping scores a complete mapping m (task t on resource m[t]),
// returning its makespan, or PrunedScore when it exceeds the installed
// gamma. The result is bit-identical to ExecInto whenever it is not
// pruned, on either path (see the type comment).
func (ss *StreamScorer) ScoreMapping(m []int) float64 {
	ss.pruned = false
	ss.skippedEdges = 0
	if !math.IsInf(ss.gamma, 1) && ss.oneTaskPerResource(m) {
		return ss.scoreByTask(m)
	}
	return ss.sweep(m)
}

// oneTaskPerResource reports whether m assigns every task and puts at
// most one of them on each resource.
func (ss *StreamScorer) oneTaskPerResource(m []int) bool {
	if len(m) != ss.eval.n {
		return false
	}
	ss.stamp++
	if ss.stamp == 0 { // wrapped: stale marks could match again
		clear(ss.mark)
		ss.stamp = 1
	}
	stamp, mark := ss.stamp, ss.mark
	for _, s := range m {
		if mark[s] == stamp {
			return false
		}
		mark[s] = stamp
	}
	return true
}

// scoreByTask is the early-exit path. With one task per resource,
// resource m[t] is charged exactly task t's processing time and then its
// incident edges' communication charges in edge-list order — the same
// additions, in the same order, as the sweep (link is symmetric, so the
// charge seen from either endpoint is the same product). Every load is
// complete when compared, so the first load over gamma proves the draw
// over threshold.
func (ss *StreamScorer) scoreByTask(m []int) float64 {
	e := ss.eval
	r := e.r
	start := e.incStart
	gamma := ss.gamma
	maxLoad := 0.0
	for k, t := range e.visit {
		s := m[t]
		load := taskLoad(e.tcp[int(t)*r+s], e.inc[start[k]:start[k+1]], e.link[s*r:s*r+r], m)
		if load > gamma {
			ss.pruned = true
			ss.skippedEdges = len(e.inc) - int(start[k+1])
			return PrunedScore
		}
		maxLoad = max(maxLoad, load)
	}
	return maxLoad
}

// taskLoad adds one task's communication charges to its processing time
// load: row is the link-cost row of the task's resource. Kept as its own
// (inlined) function, the loop holds its few operands in registers
// instead of spilling scoreByTask's.
func taskLoad(load float64, list []incident, row []float64, m []int) float64 {
	for _, a := range list {
		load += float64(a.w * row[m[a.nb]])
	}
	return load
}

// sweep scores m with compute charges in task order, then one pass over
// the edge list, touching each edge once. It does the same floating-point
// additions as Evaluator.Loads in the same order (co-located edges add an
// exact 0.0 through the link diagonal instead of branching), so its
// makespan is bit-identical to ExecInto on every instance.
func (ss *StreamScorer) sweep(m []int) float64 {
	e := ss.eval
	loads := ss.loads
	for i := range loads {
		loads[i] = 0
	}
	r := e.r
	for t, s := range m {
		loads[s] += e.tcp[t*r+s]
	}
	link := e.link
	for _, edge := range e.edges {
		su, sv := m[edge.u], m[edge.v]
		c := float64(edge.w * link[su*r+sv])
		loads[su] += c
		loads[sv] += c
	}
	maxLoad := maxLoads(loads)
	if ss.gamma < maxLoad { // false when gamma is +Inf
		ss.pruned = true
		return PrunedScore
	}
	return maxLoad
}

// maxLoads is a branch-free four-lane max reduction: the builtin max
// lowers to hardware max instructions, and four accumulators break the
// latency chain a single running maximum would serialise every element
// behind.
func maxLoads(loads []float64) float64 {
	var m0, m1, m2, m3 float64
	i := 0
	for ; i+3 < len(loads); i += 4 {
		m0 = max(m0, loads[i])
		m1 = max(m1, loads[i+1])
		m2 = max(m2, loads[i+2])
		m3 = max(m3, loads[i+3])
	}
	for ; i < len(loads); i++ {
		m0 = max(m0, loads[i])
	}
	return max(max(m0, m1), max(m2, m3))
}
