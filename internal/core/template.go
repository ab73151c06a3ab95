package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/query"
	"repro/internal/sparse"
	"repro/internal/wavelet"
)

// Parameterized range templates: a Plan's CSR skeleton (keys, offsets,
// queryIdx) is fully determined by the per-query key *sets* — the sparsity
// shape — and is independent of the coefficient values. Batches that share a
// shape with an existing plan therefore only need new coefficients, not a
// new merge/sort/flatten: Bind fills a fresh coefficient array into a view
// sharing the template's skeleton, bit-identical to a plan built from
// scratch for the same vectors. The plan registry (registry.go) indexes
// templates by shape fingerprint to find bind candidates.

// ErrShapeMismatch reports that a batch's sparsity shape differs from the
// template plan's, so the CSR skeleton cannot be reused. Callers fall back
// to a full build.
var ErrShapeMismatch = errors.New("core: batch sparsity shape does not match template plan")

// bindKey identifies one (query, storage key) coefficient slot of the CSR
// layout.
type bindKey struct {
	qi  int32
	key int
}

// buildBindIndex lazily materializes the (query, key) → flat coefficient
// position map used by Bind. Built at most once per template plan; bound
// views share the skeleton but never become templates themselves, so they
// never pay this.
func (p *Plan) buildBindIndex() {
	p.bindOnce.Do(func() {
		m := make(map[bindKey]int32, len(p.queryIdx))
		for i, key := range p.keys {
			lo, hi := p.offsets[i], p.offsets[i+1]
			for k := lo; k < hi; k++ {
				m[bindKey{qi: p.queryIdx[k], key: key}] = k
			}
		}
		p.bindPos = m
	})
}

// Bind re-weights the template against new per-query coefficient vectors,
// returning a lightweight plan view that shares this plan's CSR skeleton
// (keys, offsets, query references) and owns only its coefficient array and
// labels; it builds its own bound index on first use, since that index
// orders by coefficient magnitude. The vectors must have exactly the
// template's sparsity shape: the same number of queries and, per query, the
// same key set. On any deviation Bind returns ErrShapeMismatch (wrapped) and
// the caller should build a fresh plan.
//
// The returned plan is bit-identical to NewPlan(vectors, labels): the same
// entries in the same order with the same coefficient values, so schedules,
// runs and exact evaluations on it match a from-scratch plan float-for-float.
// labels may be nil (defaults to q0, q1, … as in NewPlan).
func (p *Plan) Bind(vectors []sparse.Vector, labels []string) (*Plan, error) {
	if len(vectors) != p.NumQueries() {
		return nil, fmt.Errorf("%w: %d queries against a %d-query template",
			ErrShapeMismatch, len(vectors), p.NumQueries())
	}
	if labels != nil && len(labels) != len(vectors) {
		return nil, fmt.Errorf("core: %d labels for %d queries", len(labels), len(vectors))
	}
	total := 0
	for _, v := range vectors {
		total += len(v)
	}
	if total != len(p.coeffs) {
		return nil, fmt.Errorf("%w: %d coefficients against a %d-slot template",
			ErrShapeMismatch, total, len(p.coeffs))
	}
	p.buildBindIndex()
	coeffs := make([]float64, len(p.coeffs))
	for qi, vec := range vectors {
		qi32 := int32(qi)
		for key, c := range vec {
			pos, ok := p.bindPos[bindKey{qi: qi32, key: key}]
			if !ok {
				return nil, fmt.Errorf("%w: query %d key %d absent from template",
					ErrShapeMismatch, qi, key)
			}
			coeffs[pos] = c
		}
	}
	// Coefficient counts match and every (query, key) hit a distinct slot
	// (vectors are maps, so keys are unique per query), hence the fill is a
	// bijection onto the template's slots: every position was written.
	if labels == nil {
		labels = make([]string, len(vectors))
		for i := range labels {
			labels[i] = fmt.Sprintf("q%d", i)
		}
	}
	bound := &Plan{
		Labels:                 append([]string(nil), labels...),
		keys:                   p.keys,
		offsets:                p.offsets,
		queryIdx:               p.queryIdx,
		coeffs:                 coeffs,
		totalQueryCoefficients: p.totalQueryCoefficients,
	}
	if m := coObs(); m != nil {
		m.templateBinds.Inc()
	}
	return bound, nil
}

// shapeHash accumulates per-query sorted key lists into a shape fingerprint.
type shapeHash struct {
	h   interface{ Sum64() uint64 }
	w   func(uint64)
	buf [8]byte
}

func newShapeHash() *shapeHash {
	s := &shapeHash{}
	h := fnv.New64a()
	s.h = h
	s.w = func(v uint64) {
		binary.LittleEndian.PutUint64(s.buf[:], v)
		_, _ = h.Write(s.buf[:])
	}
	return s
}

func (s *shapeHash) query(keys []int) {
	s.w(uint64(len(keys)))
	for _, k := range keys {
		s.w(uint64(k))
	}
}

func (s *shapeHash) String() string { return fmt.Sprintf("shape:%016x", s.h.Sum64()) }

// ShapeFingerprint hashes the sparsity shape of per-query coefficient
// vectors: the number of queries and, per query, the sorted key set. Two
// batches share a fingerprint exactly when (hash collisions aside) a plan
// built for one can serve the other through Bind. Values are ignored.
func ShapeFingerprint(vectors []sparse.Vector) string {
	sh := newShapeHash()
	sh.w(uint64(len(vectors)))
	scratch := make([]int, 0, 64)
	for _, vec := range vectors {
		scratch = scratch[:0]
		for k := range vec {
			scratch = append(scratch, k)
		}
		sort.Ints(scratch)
		sh.query(scratch)
	}
	return sh.String()
}

// rewriteBatch computes per-query wavelet coefficient vectors and labels
// under the same validation NewWaveletPlan applies (schema consistency and
// degree-vs-filter), so a bind path fed by it can never accept a batch the
// full build would reject. The per-key values are bit-identical to the ones
// the streaming plan build emits: both reduce to the same coefficient ×
// tensor-product multiplications in the same order.
func rewriteBatch(b query.Batch, f *wavelet.Filter) ([]sparse.Vector, []string, error) {
	if err := b.Validate(); err != nil {
		return nil, nil, err
	}
	if deg := b.Degree(); !f.SupportsDegree(deg) {
		return nil, nil, fmt.Errorf("core: filter %s (%d vanishing moments) cannot sparsely rewrite degree-%d queries; need filter length ≥ %d",
			f.Name, f.VanishingMoments(), deg, 2*deg+2)
	}
	vectors := make([]sparse.Vector, len(b))
	labels := make([]string, len(b))
	for i, q := range b {
		v, err := q.Coefficients(f)
		if err != nil {
			return nil, nil, err
		}
		vectors[i] = v
		labels[i] = q.Label
	}
	return vectors, labels, nil
}

// ShapeOf returns the plan's own shape fingerprint, computed from the CSR
// arrays, matching ShapeFingerprint of the vectors the plan was built from.
func (p *Plan) ShapeOf() string {
	n := p.NumQueries()
	counts := make([]int, n)
	for _, qi := range p.queryIdx {
		counts[qi]++
	}
	perQuery := make([][]int, n)
	for qi, c := range counts {
		perQuery[qi] = make([]int, 0, c)
	}
	// Entries are visited in ascending key order, so per-query lists come
	// out sorted, matching ShapeFingerprint's sorted key sets.
	for i, key := range p.keys {
		lo, hi := p.offsets[i], p.offsets[i+1]
		for k := lo; k < hi; k++ {
			qi := p.queryIdx[k]
			perQuery[qi] = append(perQuery[qi], key)
		}
	}
	sh := newShapeHash()
	sh.w(uint64(n))
	for _, keys := range perQuery {
		sh.query(keys)
	}
	return sh.String()
}
