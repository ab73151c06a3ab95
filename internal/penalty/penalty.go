// Package penalty implements the paper's structural error penalty functions
// (Definition 2): non-negative, homogeneous, convex, even functions of the
// batch error vector. A penalty plays two roles:
//
//   - scoring an actual error vector (Eval), used to measure progressive
//     result quality, and
//   - defining the importance ι_p(ξ) = p(q̂_0[ξ],…,q̂_{s−1}[ξ]) of a wavelet
//     for the batch (Importance), which drives Batch-Biggest-B's retrieval
//     order (Definition 3).
//
// Quadratic penalties (positive semi-definite forms e→eᵀAe) are the workhorse:
// SSE, cursored SSE, discrete-Laplacian and first-difference smoothness
// penalties, and arbitrary user-supplied forms, all closed under non-negative
// linear combination. Lp norms cover the paper's Corollary 1.
package penalty

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// Penalty is a structural error penalty function on batch error vectors.
type Penalty interface {
	// Name identifies the penalty in reports.
	Name() string
	// Eval returns p(e) for a full error vector (length = batch size).
	Eval(e []float64) float64
	// Importance returns p applied to the sparse vector with value vals[k]
	// at batch position idxs[k] and zero elsewhere. idxs must be strictly
	// increasing; vals has equal length. This is ι_p(ξ) when called with the
	// per-query wavelet coefficients at ξ.
	Importance(idxs []int32, vals []float64) float64
	// Homogeneity returns the degree α with p(c·e) = |c|^α·p(e):
	// 2 for quadratic forms, 1 for norms.
	Homogeneity() float64
	// Fingerprint returns a stable canonical identifier of the penalty's
	// importance function: two penalties with equal fingerprints assign
	// equal importance to every sparse coefficient vector. Plans key their
	// cached retrieval schedules by fingerprint, so it must cover every
	// parameter Importance depends on (weights, neighbor structure, p, the
	// quadratic form matrix) but not cosmetic state such as display names.
	Fingerprint() string
}

// fingerprintFloats hashes float64 parameter vectors (length-prefixed, raw
// IEEE-754 bits, FNV-1a) under a short scheme prefix — the shared helper
// behind the parameterized penalties' Fingerprint methods.
func fingerprintFloats(scheme string, vecs ...[]float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, vs := range vecs {
		binary.LittleEndian.PutUint64(b[:], uint64(len(vs)))
		h.Write(b[:])
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%s:%016x", scheme, h.Sum64())
}

// SSE is the sum of squared errors Σ e_i² — the paper's p_SSE, and the
// penalty under which Batch-Biggest-B reduces to the Section 2 algorithm.
type SSE struct{}

// Name implements Penalty.
func (SSE) Name() string { return "SSE" }

// Eval implements Penalty.
func (SSE) Eval(e []float64) float64 {
	var s float64
	for _, v := range e {
		s += v * v
	}
	return s
}

// Importance implements Penalty.
func (SSE) Importance(_ []int32, vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v * v
	}
	return s
}

// Homogeneity implements Penalty.
func (SSE) Homogeneity() float64 { return 2 }

// Fingerprint implements Penalty. SSE has no parameters.
func (SSE) Fingerprint() string { return "sse" }

// Weighted is a diagonal quadratic penalty Σ w_i·e_i² with w_i ≥ 0. Zero
// weights declare errors irrelevant, which Definition 2 explicitly allows
// (the form is semi-definite).
type Weighted struct {
	weights []float64
	name    string
}

// NewWeighted validates the weights (non-negative, at least one positive)
// and returns the penalty.
func NewWeighted(weights []float64) (*Weighted, error) {
	anyPos := false
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("penalty: weight %d is %g, must be finite and non-negative", i, w)
		}
		if w > 0 {
			anyPos = true
		}
	}
	if !anyPos {
		return nil, fmt.Errorf("penalty: all weights are zero")
	}
	return &Weighted{weights: append([]float64(nil), weights...), name: "WeightedSSE"}, nil
}

// Cursored builds the paper's cursored SSE (penalty P2 of Section 4): the
// high-priority batch positions in cursor get weight hiWeight, all others
// weight 1.
func Cursored(batchSize int, cursor []int, hiWeight float64) (*Weighted, error) {
	if hiWeight <= 0 {
		return nil, fmt.Errorf("penalty: cursor weight must be positive, got %g", hiWeight)
	}
	w := make([]float64, batchSize)
	for i := range w {
		w[i] = 1
	}
	for _, i := range cursor {
		if i < 0 || i >= batchSize {
			return nil, fmt.Errorf("penalty: cursor index %d outside batch of size %d", i, batchSize)
		}
		w[i] = hiWeight
	}
	p, err := NewWeighted(w)
	if err != nil {
		return nil, err
	}
	p.name = fmt.Sprintf("CursoredSSE(|H|=%d,w=%g)", len(cursor), hiWeight)
	return p, nil
}

// Name implements Penalty.
func (p *Weighted) Name() string { return p.name }

// Eval implements Penalty.
func (p *Weighted) Eval(e []float64) float64 {
	if len(e) != len(p.weights) {
		panic(fmt.Sprintf("penalty: error vector length %d, want %d", len(e), len(p.weights)))
	}
	var s float64
	for i, v := range e {
		s += p.weights[i] * v * v
	}
	return s
}

// Importance implements Penalty.
func (p *Weighted) Importance(idxs []int32, vals []float64) float64 {
	var s float64
	for k, i := range idxs {
		s += p.weights[i] * vals[k] * vals[k]
	}
	return s
}

// Homogeneity implements Penalty.
func (p *Weighted) Homogeneity() float64 { return 2 }

// Fingerprint implements Penalty: the weight vector determines the
// importance function (the display name does not — a Cursored penalty and a
// NewWeighted with the same weights share a schedule).
func (p *Weighted) Fingerprint() string { return fingerprintFloats("weighted", p.weights) }

// Smoothness is a quadratic penalty on a linear difference operator:
// p(e) = Σ_i ((De)_i)² where row i of D is Σ_{j∈N(i)} e_j − |N(i)|·e_i
// (graph Laplacian) or a first difference. It captures the paper's penalty
// P3 ("SSE in the discrete Laplacian", penalizing false local extrema) and
// the "temporal surprise" penalty.
type Smoothness struct {
	neighbors [][]int
	name      string
	selfCoeff []float64 // coefficient of e_i in row i
}

// NewLaplacian builds the discrete-Laplacian smoothness penalty for a batch
// whose queries are arranged in a chain (1-D sequence of adjacent ranges):
// row i is e_{i−1} − 2e_i + e_{i+1} in the interior, with one-sided rows at
// the ends.
func NewLaplacian(batchSize int) (*Smoothness, error) {
	if batchSize < 2 {
		return nil, fmt.Errorf("penalty: Laplacian needs at least 2 queries, got %d", batchSize)
	}
	nb := make([][]int, batchSize)
	for i := range nb {
		if i > 0 {
			nb[i] = append(nb[i], i-1)
		}
		if i < batchSize-1 {
			nb[i] = append(nb[i], i+1)
		}
	}
	return newSmoothness(nb, "LaplacianSSE"), nil
}

// NewGridLaplacian builds the Laplacian penalty for queries arranged in a
// row-major grid of the given shape (e.g. the cells of a GridPartition);
// neighbors are the axis-adjacent grid cells.
func NewGridLaplacian(shape []int) (*Smoothness, error) {
	total := 1
	for i, n := range shape {
		if n < 1 {
			return nil, fmt.Errorf("penalty: grid shape dimension %d is %d", i, n)
		}
		total *= n
	}
	if total < 2 {
		return nil, fmt.Errorf("penalty: grid Laplacian needs at least 2 cells")
	}
	strides := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	nb := make([][]int, total)
	coords := make([]int, len(shape))
	for idx := 0; idx < total; idx++ {
		rem := idx
		for i := len(shape) - 1; i >= 0; i-- {
			coords[i] = rem % shape[i]
			rem /= shape[i]
		}
		for i := range shape {
			if coords[i] > 0 {
				nb[idx] = append(nb[idx], idx-strides[i])
			}
			if coords[i] < shape[i]-1 {
				nb[idx] = append(nb[idx], idx+strides[i])
			}
		}
	}
	return newSmoothness(nb, "GridLaplacianSSE"), nil
}

// NewFirstDifference builds the "temporal surprise" penalty
// p(e) = Σ_{i<s−1} (e_{i+1} − e_i)², penalizing errors that fake or mask
// jumps between consecutive query results.
func NewFirstDifference(batchSize int) (*Smoothness, error) {
	if batchSize < 2 {
		return nil, fmt.Errorf("penalty: first difference needs at least 2 queries, got %d", batchSize)
	}
	// Row i (for i < batchSize-1) is e_{i+1} − e_i. Encode as neighbors with
	// selfCoeff −1 and single successor neighbor; the final row is zero.
	nb := make([][]int, batchSize)
	self := make([]float64, batchSize)
	for i := 0; i < batchSize-1; i++ {
		nb[i] = []int{i + 1}
		self[i] = -1
	}
	sm := newSmoothness(nb, "FirstDifferenceSSE")
	sm.selfCoeff = self
	return sm, nil
}

func newSmoothness(neighbors [][]int, name string) *Smoothness {
	self := make([]float64, len(neighbors))
	for i, ns := range neighbors {
		self[i] = -float64(len(ns))
	}
	return &Smoothness{neighbors: neighbors, name: name, selfCoeff: self}
}

// Name implements Penalty.
func (p *Smoothness) Name() string { return p.name }

// row computes (De)_i for the dense error vector e.
func (p *Smoothness) row(i int, at func(int) float64) float64 {
	v := p.selfCoeff[i] * at(i)
	for _, j := range p.neighbors[i] {
		v += at(j)
	}
	return v
}

// Eval implements Penalty.
func (p *Smoothness) Eval(e []float64) float64 {
	if len(e) != len(p.neighbors) {
		panic(fmt.Sprintf("penalty: error vector length %d, want %d", len(e), len(p.neighbors)))
	}
	at := func(i int) float64 { return e[i] }
	var s float64
	for i := range p.neighbors {
		r := p.row(i, at)
		s += r * r
	}
	return s
}

// Importance implements Penalty. Only rows touching a nonzero entry can be
// nonzero, so the cost is proportional to the sparse support's neighborhood,
// not the batch size.
func (p *Smoothness) Importance(idxs []int32, vals []float64) float64 {
	if len(idxs) == 0 {
		return 0
	}
	sparse := make(map[int]float64, len(idxs))
	for k, i := range idxs {
		sparse[int(i)] = vals[k]
	}
	at := func(i int) float64 { return sparse[i] }
	rows := make(map[int]struct{}, 4*len(idxs))
	for i := range sparse {
		rows[i] = struct{}{}
		for _, j := range p.neighbors[i] {
			rows[j] = struct{}{}
		}
		// Rows whose neighbor list contains i: for our symmetric builders
		// (chain, grid) that is exactly the neighbors of i, already added.
		// FirstDifference is asymmetric: row i−1 contains i.
		if i > 0 && p.selfCoeff[i-1] != 0 {
			for _, j := range p.neighbors[i-1] {
				if j == i {
					rows[i-1] = struct{}{}
					break
				}
			}
		}
	}
	// Sum rows in ascending order: map iteration order would reorder the
	// float additions and make equal calls disagree in the last ulp, which
	// the engine's bit-identical-importance invariant cannot tolerate.
	order := make([]int, 0, len(rows))
	for i := range rows {
		order = append(order, i)
	}
	sort.Ints(order)
	var s float64
	for _, i := range order {
		r := p.row(i, at)
		s += r * r
	}
	return s
}

// Homogeneity implements Penalty.
func (p *Smoothness) Homogeneity() float64 { return 2 }

// Fingerprint implements Penalty: the difference operator is determined by
// the neighbor lists and the per-row self coefficients.
func (p *Smoothness) Fingerprint() string {
	h := fnv.New64a()
	var b [8]byte
	writeInt := func(x int) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	writeInt(len(p.neighbors))
	for i, ns := range p.neighbors {
		writeInt(len(ns))
		for _, j := range ns {
			writeInt(j)
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.selfCoeff[i]))
		h.Write(b[:])
	}
	return fmt.Sprintf("smooth:%016x", h.Sum64())
}

// NewSobolev builds the discrete Sobolev (H¹-style) penalty
// p(e) = Σ e_i² + λ·Σ (e_{i+1}−e_i)² over a query chain — Definition 2
// explicitly includes Sobolev norms among the admissible penalties. It
// penalizes both magnitude and roughness of the error, interpolating
// between plain SSE (λ→0) and the pure temporal-surprise penalty (λ large).
func NewSobolev(batchSize int, lambda float64) (Penalty, error) {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("penalty: Sobolev weight must be finite and non-negative, got %g", lambda)
	}
	if lambda == 0 {
		return SSE{}, nil
	}
	fd, err := NewFirstDifference(batchSize)
	if err != nil {
		return nil, err
	}
	c, err := NewCombo([]float64{1, lambda}, []Penalty{SSE{}, fd})
	if err != nil {
		return nil, err
	}
	return &named{Penalty: c, name: fmt.Sprintf("Sobolev(λ=%g)", lambda)}, nil
}

// named overrides a penalty's display name.
type named struct {
	Penalty
	name string
}

// Name implements Penalty.
func (n *named) Name() string { return n.name }

// LpNorm is the penalty ‖e‖_p = (Σ|e_i|^p)^{1/p} for 1 ≤ p ≤ ∞
// (math.Inf(1) selects the max norm). Norms are homogeneous of degree 1 and
// convex, so Corollary 1 applies: the p-weighted biggest-B approximation
// minimizes the worst-case Lp error.
type LpNorm struct {
	p float64
}

// NewLpNorm validates p and returns the norm penalty.
func NewLpNorm(p float64) (*LpNorm, error) {
	if math.IsNaN(p) || p < 1 {
		return nil, fmt.Errorf("penalty: Lp norm requires p ≥ 1, got %g", p)
	}
	return &LpNorm{p: p}, nil
}

// Linf returns the max-norm penalty ‖e‖_∞ — the p = ∞ case of NewLpNorm,
// which cannot fail and so needs no error path.
func Linf() *LpNorm { return &LpNorm{p: math.Inf(1)} }

// Name implements Penalty.
func (n *LpNorm) Name() string {
	if math.IsInf(n.p, 1) {
		return "Linf"
	}
	return fmt.Sprintf("L%g", n.p)
}

// Eval implements Penalty.
func (n *LpNorm) Eval(e []float64) float64 { return n.norm(e) }

// Importance implements Penalty: the norm of a sparse vector ignores zeros.
func (n *LpNorm) Importance(_ []int32, vals []float64) float64 { return n.norm(vals) }

func (n *LpNorm) norm(vals []float64) float64 {
	if math.IsInf(n.p, 1) {
		var m float64
		for _, v := range vals {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		return m
	}
	if n.p == 2 {
		var s float64
		for _, v := range vals {
			s += v * v
		}
		return math.Sqrt(s)
	}
	var s float64
	for _, v := range vals {
		s += math.Pow(math.Abs(v), n.p)
	}
	return math.Pow(s, 1/n.p)
}

// Homogeneity implements Penalty.
func (n *LpNorm) Homogeneity() float64 { return 1 }

// Fingerprint implements Penalty.
func (n *LpNorm) Fingerprint() string { return fingerprintFloats("lp", []float64{n.p}) }

// QuadraticForm is an arbitrary quadratic penalty e → eᵀAe for a symmetric
// positive semi-definite matrix A — the fully general quadratic structural
// error penalty of Definition 2, accepted "at query time" as Observation 3
// demonstrates.
type QuadraticForm struct {
	a    [][]float64
	name string
}

// NewQuadraticForm validates that a is square and symmetric, and that its
// diagonal is non-negative (a cheap necessary PSD condition; callers are
// responsible for full semi-definiteness, which cannot be checked exactly in
// floating point).
func NewQuadraticForm(a [][]float64) (*QuadraticForm, error) {
	n := len(a)
	if n == 0 {
		return nil, fmt.Errorf("penalty: empty matrix")
	}
	for i, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("penalty: row %d has length %d, want %d", i, len(row), n)
		}
		if a[i][i] < 0 {
			return nil, fmt.Errorf("penalty: negative diagonal entry %g at %d", a[i][i], i)
		}
		for j := range row {
			if math.Abs(a[i][j]-a[j][i]) > 1e-12*(1+math.Abs(a[i][j])) {
				return nil, fmt.Errorf("penalty: matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	cp := make([][]float64, n)
	for i := range cp {
		cp[i] = append([]float64(nil), a[i]...)
	}
	return &QuadraticForm{a: cp, name: "QuadraticForm"}, nil
}

// Name implements Penalty.
func (q *QuadraticForm) Name() string { return q.name }

// Eval implements Penalty.
func (q *QuadraticForm) Eval(e []float64) float64 {
	if len(e) != len(q.a) {
		panic(fmt.Sprintf("penalty: error vector length %d, want %d", len(e), len(q.a)))
	}
	var s float64
	for i, row := range q.a {
		if e[i] == 0 {
			continue
		}
		var dot float64
		for j, v := range row {
			dot += v * e[j]
		}
		s += e[i] * dot
	}
	return s
}

// Importance implements Penalty, exploiting sparsity on both sides of the
// form.
func (q *QuadraticForm) Importance(idxs []int32, vals []float64) float64 {
	var s float64
	for a, ia := range idxs {
		for b, ib := range idxs {
			s += vals[a] * q.a[ia][ib] * vals[b]
		}
	}
	return s
}

// Homogeneity implements Penalty.
func (q *QuadraticForm) Homogeneity() float64 { return 2 }

// Fingerprint implements Penalty: the matrix is the penalty.
func (q *QuadraticForm) Fingerprint() string { return fingerprintFloats("qf", q.a...) }

// Combo is a non-negative linear combination of penalties with equal
// homogeneity degree — "linear combinations of quadratic penalty functions
// are still quadratic penalty functions, allowing them to be mixed
// arbitrarily" (Section 4).
type Combo struct {
	weights []float64
	parts   []Penalty
}

// NewCombo validates the combination and returns it.
func NewCombo(weights []float64, parts []Penalty) (*Combo, error) {
	if len(weights) != len(parts) || len(parts) == 0 {
		return nil, fmt.Errorf("penalty: combo needs matching non-empty weights and parts")
	}
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("penalty: combo weight %d is %g", i, w)
		}
	}
	alpha := parts[0].Homogeneity()
	for _, p := range parts[1:] {
		if p.Homogeneity() != alpha {
			return nil, fmt.Errorf("penalty: combo mixes homogeneity degrees %g and %g",
				alpha, p.Homogeneity())
		}
	}
	return &Combo{weights: append([]float64(nil), weights...), parts: append([]Penalty(nil), parts...)}, nil
}

// Name implements Penalty.
func (c *Combo) Name() string {
	s := "Combo("
	for i, p := range c.parts {
		if i > 0 {
			s += "+"
		}
		s += fmt.Sprintf("%g·%s", c.weights[i], p.Name())
	}
	return s + ")"
}

// Eval implements Penalty.
func (c *Combo) Eval(e []float64) float64 {
	var s float64
	for i, p := range c.parts {
		s += c.weights[i] * p.Eval(e)
	}
	return s
}

// Importance implements Penalty.
func (c *Combo) Importance(idxs []int32, vals []float64) float64 {
	var s float64
	for i, p := range c.parts {
		s += c.weights[i] * p.Importance(idxs, vals)
	}
	return s
}

// Homogeneity implements Penalty.
func (c *Combo) Homogeneity() float64 { return c.parts[0].Homogeneity() }

// Fingerprint implements Penalty: the weights (raw bits) and the parts'
// fingerprints, in order.
func (c *Combo) Fingerprint() string {
	s := "combo["
	for i, p := range c.parts {
		if i > 0 {
			s += "+"
		}
		s += fmt.Sprintf("%016x*%s", math.Float64bits(c.weights[i]), p.Fingerprint())
	}
	return s + "]"
}
