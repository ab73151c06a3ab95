package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Per-query progressive error bounds: by Hölder's inequality the error of
// query i after retrieving the set Ξ satisfies
//
//	|err_i| = |Σ_{ξ∉Ξ} q̂_i[ξ]·Δ̂[ξ]| ≤ K · max_{ξ∉Ξ} |q̂_i[ξ]|,
//
// with K = Σ|Δ̂[ξ]|, and the bound is attained by a point-mass database —
// the per-query analogue of Theorem 1's batch bound. These are the error
// bars a progressive UI can draw next to each estimate.
//
// The candidate lists depend only on the plan, which builds them on the
// first QueryErrorBound call of any run and shares them with every run: 4 B
// per term plus 4 B per query. A run owns one int32 cursor per query. Plans
// whose runs never ask for per-query bounds pay nothing.

// buildBoundIndex groups the CSR positions by query, each group sorted by
// descending |coefficient|. Position k's magnitude is read back as
// |coeffs[k]| and its entry recovered by entryOf: one int32 per term.
func (p *Plan) buildBoundIndex() {
	p.boundOnce.Do(func() {
		// Counting sort by query; the reverse fill moves off[qi] to its start.
		off := make([]int32, p.NumQueries()+1)
		for _, qi := range p.queryIdx {
			off[qi]++
		}
		for qi := 1; qi < len(off); qi++ {
			off[qi] += off[qi-1]
		}
		pos := make([]int32, len(p.queryIdx))
		for k := len(p.queryIdx) - 1; k >= 0; k-- {
			qi := p.queryIdx[k]
			off[qi]--
			pos[off[qi]] = int32(k)
		}
		for qi := 0; qi+1 < len(off); qi++ {
			slices.SortFunc(pos[off[qi]:off[qi+1]], func(a, b int32) int {
				return cmp.Compare(math.Abs(p.coeffs[b]), math.Abs(p.coeffs[a]))
			})
		}
		p.boundOff, p.boundPos = off, pos
	})
}

// entryOf returns the master-list entry owning CSR position k: the i with
// offsets[i] ≤ k < offsets[i+1].
func (p *Plan) entryOf(k int32) int32 {
	return int32(sort.Search(len(p.keys), func(i int) bool { return p.offsets[i+1] > k }))
}

// QueryErrorBound returns the worst-case bound K·max_{ξ∉Ξ}|q̂_i[ξ]| on the
// current estimate of query i, for databases with coefficient mass
// K = Σ|Δ̂[ξ]| equal to coefficientMass. It returns 0 once every coefficient
// of the query has been retrieved (the estimate is exact). The first call on
// a plan builds its shared bound index; the first call on a run allocates
// the run's cursors.
func (r *Run) QueryErrorBound(i int, coefficientMass float64) float64 {
	p := r.plan
	p.buildBoundIndex()
	if r.boundNext == nil {
		r.boundNext = make([]int32, p.NumQueries())
	}
	// Retrieval is monotone (a skipped entry counts as unretrieved until a
	// retry recovers it), so the cursor only moves forward.
	n, hi := p.boundOff[i]+r.boundNext[i], p.boundOff[i+1]
	for n < hi && r.entryRetrieved(p.entryOf(p.boundPos[n])) {
		n++
	}
	r.boundNext[i] = n - p.boundOff[i]
	if n >= hi {
		return 0
	}
	return coefficientMass * math.Abs(p.coeffs[p.boundPos[n]])
}

// QueryErrorBounds returns the bound for every query in the batch.
func (r *Run) QueryErrorBounds(coefficientMass float64) []float64 {
	out := make([]float64, r.plan.NumQueries())
	for i := range out {
		out[i] = r.QueryErrorBound(i, coefficientMass)
	}
	return out
}
