package cost

import "math"

// StreamScorer evaluates the execution-time model of eqs. (1)-(2) for the
// CE sample-and-score loop: ScoreMapping scores a freshly drawn mapping
// with one sweep over the TIG edge list, optionally cutting the sweep
// short once the draw provably cannot reach an installed elite threshold.
//
// A StreamScorer holds per-goroutine scratch state: create one per worker
// (or pool them). Not safe for concurrent use.
//
// # Gamma pruning
//
// SetGamma installs an elite threshold. Loads only grow as charges
// accumulate (every charge of the model is non-negative, and adding a
// non-negative float never shrinks a rounded sum), so once the busiest
// partial load exceeds gamma the final makespan must too: ScoreMapping
// then returns PrunedScore instead of the true value. A pruned sample can
// therefore never enter an elite set thresholded at gamma; callers that
// need exact scores for pruned draws (the CE rescue path) re-score the
// mapping with the threshold at +Inf, which disables pruning entirely.
type StreamScorer struct {
	eval *Evaluator

	// loads holds one accumulated load per resource.
	loads []float64

	// Gamma-pruning state. gamma is +Inf when pruning is disabled.
	gamma float64
	// skippedEdges is the edge-sweep work the last ScoreMapping call
	// avoided by pruning — the per-draw saving the telemetry layer
	// aggregates into a work-avoided counter.
	skippedEdges int
	pruned       bool
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
		gamma: math.Inf(1),
	}
}

// SetGamma installs the pruning threshold (see the type comment); +Inf
// disables pruning. It applies from the next ScoreMapping call onwards.
func (ss *StreamScorer) SetGamma(gamma float64) { ss.gamma = gamma }

// Pruned reports whether the last ScoreMapping call was cut short by the
// gamma threshold.
func (ss *StreamScorer) Pruned() bool { return ss.pruned }

// SkippedEdges reports how many edge charges the last ScoreMapping call
// skipped thanks to gamma pruning (0 for unpruned draws and for draws
// pruned only by the final check).
func (ss *StreamScorer) SkippedEdges() int { return ss.skippedEdges }

// ScoreMapping scores a complete mapping in one pass: compute charges in
// task order, then a single sweep over the edge list, touching each edge
// once. The sweep does the same floating-point additions as
// Evaluator.Loads in the same order (co-located edges add an exact 0.0
// through the link diagonal instead of branching), so with pruning off
// the result is bit-identical to ExecInto on every instance.
//
// The installed gamma threshold prunes the sweep at block granularity:
// after every pruneBlockEdges edges the current busiest load is scanned,
// and since loads only grow, a scan exceeding gamma proves the final
// makespan does — PrunedScore is returned and the remaining blocks are
// skipped. Every over-threshold mapping is caught (the last scan sees the
// final loads), the per-edge loop body carries no extra compare, and the
// accumulation is identical with pruning on or off.
func (ss *StreamScorer) ScoreMapping(m []int) float64 {
	e := ss.eval
	loads := ss.loads
	for i := range loads {
		loads[i] = 0
	}
	ss.pruned = false
	ss.skippedEdges = 0
	r := e.r
	for t, s := range m {
		loads[s] += e.tcp[t*r+s]
	}
	gamma := ss.gamma
	link := e.link
	edges := e.edges
	// Scans only make sense once enough charge has accumulated for a
	// crossing to be provable: on near-threshold draws (the common case —
	// gamma is an elite quantile of the same distribution) loads grow
	// roughly linearly, so crossings cluster in the sweep's tail.
	scanFrom := len(edges) - len(edges)/4
	if math.IsInf(gamma, 1) {
		scanFrom = len(edges) // never scan mid-sweep
	}
	for base := 0; base < len(edges); {
		end := base + pruneBlockEdges
		if end > len(edges) {
			end = len(edges)
		}
		for _, edge := range edges[base:end] {
			su, sv := m[edge.u], m[edge.v]
			// Co-located: the link diagonal is zero, so both adds are
			// exact no-ops — same sums as the branchy formulation.
			c := edge.w * link[su*r+sv]
			loads[su] += c
			loads[sv] += c
		}
		base = end
		if base >= scanFrom && base < len(edges) {
			if maxLoads(loads) > gamma {
				ss.pruned = true
				ss.skippedEdges = len(edges) - base
				return PrunedScore
			}
		}
	}
	maxLoad := maxLoads(loads)
	if ss.gamma < maxLoad { // false when gamma is +Inf
		ss.pruned = true
		return PrunedScore
	}
	return maxLoad
}

// pruneBlockEdges is ScoreMapping's gamma-check granularity: edges per
// block between busiest-load scans. Large enough that the O(|Vr|) scans
// add only a few percent to the sweep, small enough that a crossing near
// the end of the walk still skips some tail work.
const pruneBlockEdges = 256

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
