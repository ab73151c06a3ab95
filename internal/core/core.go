// Package core implements Batch-Biggest-B (Figure 1 of the paper): exact
// and progressive evaluation of a batch of vector queries against a stored
// linear transform of the data, sharing every retrieval across the batch and
// ordering retrievals by a penalty-derived importance function.
//
// The package is deliberately agnostic about where the per-query sparse
// coefficient vectors come from: wavelet rewriting (the common case, via
// NewWaveletPlan), prefix-sum corners, or any other linear
// storage/evaluation strategy (Section 1.2 of the paper) all produce a Plan
// the same way.
package core

import (
	"container/list"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/penalty"
	"repro/internal/query"
	"repro/internal/sparse"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// Plan is the merged master list for a query batch (steps 2–3 of
// Batch-Biggest-B): the union of the per-query nonzero coefficient lists,
// grouped by storage key so each key is retrieved at most once.
//
// The master list is stored in CSR form — entry i is the distinct key
// keys[i] (ascending) whose (query, coefficient) references occupy
// queryIdx[offsets[i]:offsets[i+1]] and coeffs[offsets[i]:offsets[i+1]].
// Four flat arrays instead of a slice of per-entry slices keeps Exact and
// Step cache-linear and puts zero per-entry allocations on the heap.
//
// A Plan is immutable after construction and safe for concurrent use: any
// number of goroutines may evaluate it, start runs on it, or warm its
// per-penalty schedule cache (see schedule.go) at the same time.
type Plan struct {
	Labels []string

	// CSR master list, ascending key order.
	keys     []int
	offsets  []int32
	queryIdx []int32
	coeffs   []float64

	// totalQueryCoefficients is the sum of per-query nonzero counts — the
	// number of retrievals an unshared per-query evaluation would need.
	totalQueryCoefficients int

	// evalOnce guards the lazily-built per-query inverted entry lists used
	// by ExactParallel's apply phase (parallel.go).
	evalOnce sync.Once
	byQuery  [][]qref

	// boundOnce guards the per-query error-bound index (bounds.go): query
	// qi's CSR positions, sorted by descending |coefficient|, are
	// boundPos[boundOff[qi]:boundOff[qi+1]]. Every run on the plan shares it.
	boundOnce sync.Once
	boundOff  []int32
	boundPos  []int32

	// bindOnce guards bindPos, the lazily-built (query, key) → flat
	// coefficient position index that lets Bind re-weight same-shape batches
	// against this plan's CSR skeleton (template.go).
	bindOnce sync.Once
	bindPos  map[bindKey]int32

	// schedMu guards schedules and schedLRU, the per-penalty-fingerprint
	// cache of retrieval schedules and its recency list (schedule.go). The
	// cache is bounded by maxCachedSchedules with LRU eviction, mirroring
	// the plan registry's policy.
	schedMu   sync.Mutex
	schedules map[string]*scheduleSlot
	schedLRU  *list.List
}

// NewPlan merges the per-query sparse coefficient vectors into a master
// list. labels may be nil; otherwise it must have one label per vector.
// Construction parallelizes across GOMAXPROCS workers (see NewPlanParallel)
// and is deterministic: the resulting plan is identical however many workers
// run.
func NewPlan(vectors []sparse.Vector, labels []string) (*Plan, error) {
	return NewPlanParallel(vectors, labels, 0)
}

// NewPlanParallel is NewPlan with an explicit worker count (≤0 selects
// GOMAXPROCS). Workers merge disjoint query blocks into key-hash-sharded
// maps which are then merged concurrently; the result is entry-for-entry
// identical to the single-worker merge.
func NewPlanParallel(vectors []sparse.Vector, labels []string, workers int) (*Plan, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	if labels != nil && len(labels) != len(vectors) {
		return nil, fmt.Errorf("core: %d labels for %d queries", len(labels), len(vectors))
	}
	if labels == nil {
		labels = make([]string, len(vectors))
		for i := range labels {
			labels[i] = fmt.Sprintf("q%d", i)
		}
	}
	gen := func(qi int, emit func(key int, c float64)) error {
		for key, c := range vectors[qi] {
			emit(key, c)
		}
		return nil
	}
	return buildPlanParallel(len(vectors), labels, gen, workers)
}

// NewWaveletPlan rewrites every query in the batch under the filter and
// merges the results — the standard wavelet instantiation. It returns an
// error if the filter lacks the vanishing moments for the batch degree,
// because that would silently destroy the sparsity the algorithm is built
// around (use NewPlan directly to opt into dense rewritings). Rewriting
// parallelizes across GOMAXPROCS workers (see NewWaveletPlanParallel) and is
// deterministic.
func NewWaveletPlan(batch query.Batch, f *wavelet.Filter) (*Plan, error) {
	return NewWaveletPlanParallel(batch, f, 0)
}

// NewWaveletPlanParallel is NewWaveletPlan with an explicit worker count
// (≤0 selects GOMAXPROCS). Query rewriting — the expensive part of planning
// — runs on a pool of workers over disjoint query blocks; the sharded merge
// preserves the exact entry and QueryIdx order of the sequential build.
func NewWaveletPlanParallel(batch query.Batch, f *wavelet.Filter, workers int) (*Plan, error) {
	if err := batch.Validate(); err != nil {
		return nil, err
	}
	if deg := batch.Degree(); !f.SupportsDegree(deg) {
		return nil, fmt.Errorf("core: filter %s (%d vanishing moments) cannot sparsely rewrite degree-%d queries; need filter length ≥ %d",
			f.Name, f.VanishingMoments(), deg, 2*deg+2)
	}
	labels := make([]string, len(batch))
	for i, q := range batch {
		labels[i] = q.Label
	}
	gen := func(qi int, emit func(key int, c float64)) error {
		if err := batch[qi].CoefficientsFunc(f, emit); err != nil {
			return fmt.Errorf("core: query %d: %w", qi, err)
		}
		return nil
	}
	return buildPlanParallel(len(batch), labels, gen, workers)
}

// NumQueries returns the batch size.
func (p *Plan) NumQueries() int { return len(p.Labels) }

// DistinctCoefficients returns the master-list length: the number of
// retrievals an exact shared evaluation performs.
func (p *Plan) DistinctCoefficients() int { return len(p.keys) }

// TotalQueryCoefficients returns the sum of per-query nonzero counts: the
// number of retrievals unshared per-query evaluation performs.
func (p *Plan) TotalQueryCoefficients() int { return p.totalQueryCoefficients }

// SharingFactor returns TotalQueryCoefficients / DistinctCoefficients — how
// many queries the average retrieved coefficient serves.
func (p *Plan) SharingFactor() float64 {
	if len(p.keys) == 0 {
		return 0
	}
	return float64(p.totalQueryCoefficients) / float64(len(p.keys))
}

// entryRefs returns entry i's (query index, coefficient) columns — views
// into the flat CSR arrays, owned by the plan.
func (p *Plan) entryRefs(i int) ([]int32, []float64) {
	lo, hi := p.offsets[i], p.offsets[i+1]
	return p.queryIdx[lo:hi], p.coeffs[lo:hi]
}

// ForEachEntry visits every master-list entry in ascending key order — the
// same order Importances reports values in. The slices are owned by the
// plan; callers must not modify them.
func (p *Plan) ForEachEntry(fn func(key int, queryIdx []int32, coeffs []float64)) {
	for i, key := range p.keys {
		idxs, cs := p.entryRefs(i)
		fn(key, idxs, cs)
	}
}

// Importances computes ι_p for every master-list entry under the penalty.
func (p *Plan) Importances(pen penalty.Penalty) []float64 {
	out := make([]float64, len(p.keys))
	for i := range out {
		out[i] = pen.Importance(p.entryRefs(i))
	}
	return out
}

// Exact evaluates the batch exactly by one pass over the master list
// (Batch-Biggest-B without the importance order — the pure I/O-sharing
// exact algorithm of Section 2.2). It performs exactly
// DistinctCoefficients retrievals, streaming linearly through the CSR
// arrays.
func (p *Plan) Exact(store storage.Store) []float64 {
	est := make([]float64, p.NumQueries())
	for i, key := range p.keys {
		v := store.Get(key)
		if v == 0 {
			continue
		}
		idxs, cs := p.entryRefs(i)
		for k, qi := range idxs {
			est[qi] += cs[k] * v
		}
	}
	return est
}

// Run is one progressive execution of Batch-Biggest-B. It is a cursor over
// the plan's cached retrieval schedule (the static pop order of the
// importance heap it replaced — see schedule.go) plus the progressive
// estimates, advancing one retrieval per Step. Once the cursor reaches the
// end of the schedule the estimates are exact.
type Run struct {
	plan  *Plan
	store storage.Store
	pen   penalty.Penalty
	sched *Schedule
	// cursor is the schedule position: entries sched.order[:cursor] have
	// been retrieved. It doubles as the retrieval count.
	cursor    int
	estimates []float64
	// boundNext holds the per-query cursors into the plan's bound index,
	// allocated on the first QueryErrorBound call (bounds.go).
	boundNext []int32
	// batchVals is StepBatch's reusable fetch buffer.
	batchVals []float64

	// fstore is the lazily-initialized fallible view of store, built on the
	// first *Ctx call so the infallible path pays nothing (fallible.go).
	fstore storage.FallibleStore
	// skipped holds the schedule positions of entries whose retrieval failed
	// permanently (ascending, since the cursor only moves forward); the run
	// advanced past them in degraded mode. skippedSet indexes the same
	// entries by master-list entry for entryRetrieved. Both are nil until
	// the first skip, so fault-free runs carry no overhead.
	skipped    []int
	skippedSet map[int32]struct{}

	// trace, when attached, receives the run's bound trajectory computed
	// with coefficient mass traceMass (obs.go). The metrics bundle is NOT
	// cached on the Run: step paths load the package pointer per call (one
	// relaxed atomic load, nil when unobserved), which keeps NewRun free of
	// calls and therefore inlinable — the 1-alloc run setup depends on it.
	trace     *obs.RunTrace
	traceMass float64
	// profile, when attached, receives the run's EXPLAIN ANALYZE rows: one
	// StepProfile per StepBatchCtx. Nil (the default) costs one nil check
	// per batch, preserving the 0-extra-alloc off path.
	profile *obs.QueryProfile
}

// NewRun prepares a progressive run: it looks up (or builds once) the
// plan's retrieval schedule under the penalty (step 4 of Batch-Biggest-B)
// and allocates the estimate vector. Sharing the schedule across runs makes
// this O(batch size) instead of the O(master list) heap initialization the
// per-run heap paid; concurrent NewRun calls on one plan are safe.
func NewRun(plan *Plan, pen penalty.Penalty, store storage.Store) *Run {
	return &Run{
		plan:      plan,
		store:     store,
		pen:       pen,
		sched:     plan.ScheduleFor(pen),
		estimates: make([]float64, plan.NumQueries()),
	}
}

// entryRetrieved reports whether master-list entry i has been retrieved:
// its schedule position lies before the cursor and it was not skipped by a
// failed retrieval. This replaces the per-run popped bitmap — the schedule's
// inverse permutation is shared by every run.
func (r *Run) entryRetrieved(i int32) bool {
	if int(r.sched.pos[i]) >= r.cursor {
		return false
	}
	if r.skippedSet != nil {
		if _, skip := r.skippedSet[i]; skip {
			return false
		}
	}
	return true
}

// Step retrieves the most important unretrieved entry — the next one in
// schedule order — and advances every query that needs it (step 5). It
// returns false when the computation is complete.
func (r *Run) Step() bool {
	if r.cursor >= len(r.sched.order) {
		return false
	}
	m := coObs()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	i := r.sched.order[r.cursor]
	r.cursor++
	v := r.store.Get(r.plan.keys[i])
	if v != 0 {
		idxs, cs := r.plan.entryRefs(int(i))
		for k, qi := range idxs {
			r.estimates[qi] += cs[k] * v
		}
	}
	if m != nil {
		m.stepSeconds.Observe(time.Since(start).Seconds())
	}
	if r.trace != nil {
		r.traceStep()
	}
	return true
}

// StepN performs up to n steps and returns how many were executed.
func (r *Run) StepN(n int) int {
	done := 0
	for done < n && r.Step() {
		done++
	}
	return done
}

// RunToCompletion drains the schedule; afterwards Estimates holds exact
// results.
func (r *Run) RunToCompletion() {
	for r.Step() {
	}
}

// Done reports whether the cursor has drained the schedule. A done run's
// estimates are exact only when it is not Degraded — a degraded run skipped
// entries whose residual error WorstCaseBound still bounds.
func (r *Run) Done() bool { return r.cursor >= len(r.sched.order) }

// Retrieved returns the number of schedule steps taken so far: retrievals
// attempted, including the SkippedCount that failed.
func (r *Run) Retrieved() int { return r.cursor }

// Estimates returns the current progressive estimates. The slice is owned
// by the run; callers must not modify it (use Snapshot for a copy).
func (r *Run) Estimates() []float64 { return r.estimates }

// Snapshot returns a copy of the current progressive estimates.
func (r *Run) Snapshot() []float64 {
	out := make([]float64, len(r.estimates))
	copy(out, r.estimates)
	return out
}

// NextImportance returns ι_p of the most important unretrieved entry, or 0
// when the run is complete. Skipped entries are unretrieved: they sit before
// the cursor in the importance-descending schedule, so the first of them
// dominates everything at or after the cursor.
func (r *Run) NextImportance() float64 {
	if len(r.skipped) > 0 {
		return r.sched.importances[r.sched.order[r.skipped[0]]]
	}
	if r.cursor >= len(r.sched.order) {
		return 0
	}
	return r.sched.importances[r.sched.order[r.cursor]]
}

// WorstCaseBound returns the Theorem 1 bound K^α·ι_p(ξ′) on the penalty of
// the current progressive estimate over all databases whose transformed
// data vector has coefficient mass K = Σ_ξ|Δ̂[ξ]| equal to coefficientMass,
// with α the penalty's homogeneity degree and ξ′ the most important
// unretrieved wavelet. α need not be an integer (Lp-norm combinations and
// user penalties may have fractional degree); math.Pow handles the general
// case and is exact for the common α ∈ {1, 2}.
func (r *Run) WorstCaseBound(coefficientMass float64) float64 {
	next := r.NextImportance()
	if next == 0 {
		return 0
	}
	return math.Pow(coefficientMass, r.pen.Homogeneity()) * next
}

// RemainingImportance returns Σ ι_p(ξ) over the unretrieved entries — the
// trace(R) of the Theorem 2 expected-penalty formula. The schedule
// precomputes the value for every prefix with the same sequential
// subtraction the heap loop performed, so mid-run values are bit-identical
// to the retired heap implementation.
func (r *Run) RemainingImportance() float64 {
	var rem float64
	if r.cursor < len(r.sched.order) {
		rem = r.sched.remaining[r.cursor]
	}
	// Skipped entries are behind the cursor but unretrieved; add them back.
	// Fault-free runs take neither branch and stay bit-identical.
	for _, sp := range r.skipped {
		rem += r.sched.importances[r.sched.order[sp]]
	}
	return rem
}

// ExpectedPenalty returns the Theorem 2 estimate of the penalty of the
// current progressive estimate for a database whose transformed data vector
// is uniformly distributed on the sphere of the given radius in the
// domainCells-dimensional coefficient space:
//
//	E[p] = radius² · Σ_{ξ unretrieved} ι_p(ξ) / domainCells
//
// It is meaningful for quadratic penalties (homogeneity 2). Note the paper
// states the denominator as N^d−1; the exact sphere moment gives N^d (see
// the theorem tests).
func (r *Run) ExpectedPenalty(domainCells int, radius float64) float64 {
	if domainCells <= 0 {
		return 0
	}
	return radius * radius * r.RemainingImportance() / float64(domainCells)
}

// StepUntilBound advances the run until the Theorem 1 worst-case penalty
// bound K^α·ι_p(ξ′) drops to target or the run completes, returning the
// number of steps executed. coefficientMass is K = Σ|Δ̂[ξ]| (see
// WorstCaseBound). This is the "stop when the answer is provably good
// enough" interface the progressive guarantees enable.
func (r *Run) StepUntilBound(coefficientMass, target float64) int {
	steps := 0
	for !r.Done() && r.WorstCaseBound(coefficientMass) > target {
		r.Step()
		steps++
	}
	return steps
}

// RunWithCheckpoints advances the run, invoking fn at each requested
// retrieval count and once more at completion. Checkpoints may arrive in
// any order and may repeat: they are visited in ascending order, each at
// most once; counts below the run's current position are skipped and counts
// beyond the master list collapse into the completion callback.
func (r *Run) RunWithCheckpoints(points []int, fn func(retrieved int, estimates []float64)) {
	sorted := append([]int(nil), points...)
	sort.Ints(sorted)
	prev := -1
	for _, p := range sorted {
		if p < r.Retrieved() || p == prev {
			continue
		}
		prev = p
		r.StepN(p - r.Retrieved())
		fn(r.Retrieved(), r.estimates)
		if r.Done() {
			break
		}
	}
	if !r.Done() {
		r.RunToCompletion()
		fn(r.Retrieved(), r.estimates)
	}
}

// RoundRobin is the unshared baseline of Section 2.2: s independent
// instances of the single-query biggest-B strategy advanced in round-robin
// fashion. Each query orders its own coefficients by |q̂[ξ]| and every
// retrieval serves exactly one query, so coefficients needed by several
// queries are fetched repeatedly.
type RoundRobin struct {
	store     storage.Store
	lists     [][]sparse.Entry
	positions []int
	estimates []float64
	retrieved int
	turn      int
}

// NewRoundRobin builds the baseline from per-query coefficient vectors.
func NewRoundRobin(vectors []sparse.Vector, store storage.Store) (*RoundRobin, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	lists := make([][]sparse.Entry, len(vectors))
	for i, v := range vectors {
		lists[i] = v.Entries() // descending |coefficient|: single-query biggest-B
	}
	return &RoundRobin{
		store:     store,
		lists:     lists,
		positions: make([]int, len(vectors)),
		estimates: make([]float64, len(vectors)),
	}, nil
}

// Step advances one query by one coefficient, cycling through the batch. It
// returns false once every query is exact.
func (r *RoundRobin) Step() bool {
	n := len(r.lists)
	for tried := 0; tried < n; tried++ {
		qi := r.turn
		r.turn = (r.turn + 1) % n
		if r.positions[qi] >= len(r.lists[qi]) {
			continue
		}
		e := r.lists[qi][r.positions[qi]]
		r.positions[qi]++
		v := r.store.Get(e.Key)
		r.retrieved++
		r.estimates[qi] += e.Val * v
		return true
	}
	return false
}

// RunToCompletion drains every per-query list.
func (r *RoundRobin) RunToCompletion() {
	for r.Step() {
	}
}

// Retrieved returns the number of (unshared) retrievals performed.
func (r *RoundRobin) Retrieved() int { return r.retrieved }

// Estimates returns the current progressive estimates (owned by the run).
func (r *RoundRobin) Estimates() []float64 { return r.estimates }
