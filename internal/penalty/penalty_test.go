package penalty

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sparseOf converts a dense vector to the (idxs, vals) form Importance takes.
func sparseOf(e []float64) ([]int32, []float64) {
	var idxs []int32
	var vals []float64
	for i, v := range e {
		if v != 0 {
			idxs = append(idxs, int32(i))
			vals = append(vals, v)
		}
	}
	return idxs, vals
}

// checkImportanceMatchesEval verifies the defining identity: Importance on a
// sparse vector equals Eval on its dense form.
func checkImportanceMatchesEval(t *testing.T, p Penalty, size int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 50; trial++ {
		e := make([]float64, size)
		nz := 1 + rng.Intn(4)
		for k := 0; k < nz; k++ {
			e[rng.Intn(size)] = rng.NormFloat64()
		}
		idxs, vals := sparseOf(e)
		want := p.Eval(e)
		got := p.Importance(idxs, vals)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("%s trial %d: Importance=%g Eval=%g (e=%v)", p.Name(), trial, got, want, e)
		}
	}
}

// checkHomogeneity verifies p(c·e) = |c|^α·p(e).
func checkHomogeneity(t *testing.T, p Penalty, size int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 20; trial++ {
		e := make([]float64, size)
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		c := rng.NormFloat64() * 3
		scaled := make([]float64, size)
		for i := range e {
			scaled[i] = c * e[i]
		}
		want := math.Pow(math.Abs(c), p.Homogeneity()) * p.Eval(e)
		got := p.Eval(scaled)
		if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("%s: p(%g·e)=%g, want %g", p.Name(), c, got, want)
		}
		// Evenness: p(-e) = p(e).
		neg := make([]float64, size)
		for i := range e {
			neg[i] = -e[i]
		}
		if math.Abs(p.Eval(neg)-p.Eval(e)) > 1e-9*(1+p.Eval(e)) {
			t.Fatalf("%s: not even", p.Name())
		}
	}
	// p(0) = 0.
	if p.Eval(make([]float64, size)) != 0 {
		t.Fatalf("%s: p(0) != 0", p.Name())
	}
}

// checkConvexity spot-checks p(λa+(1−λ)b) ≤ λp(a)+(1−λ)p(b).
func checkConvexity(t *testing.T, p Penalty, size int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 30; trial++ {
		a := make([]float64, size)
		b := make([]float64, size)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		lambda := rng.Float64()
		mix := make([]float64, size)
		for i := range a {
			mix[i] = lambda*a[i] + (1-lambda)*b[i]
		}
		lhs := p.Eval(mix)
		rhs := lambda*p.Eval(a) + (1-lambda)*p.Eval(b)
		if lhs > rhs+1e-9*(1+rhs) {
			t.Fatalf("%s: convexity violated: %g > %g", p.Name(), lhs, rhs)
		}
	}
}

func allTestPenalties(t *testing.T, size int) []Penalty {
	t.Helper()
	w := make([]float64, size)
	for i := range w {
		w[i] = float64(i%3) + 0.5
	}
	weighted, err := NewWeighted(w)
	if err != nil {
		t.Fatal(err)
	}
	cursored, err := Cursored(size, []int{0, 1, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	lap, err := NewLaplacian(size)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewGridLaplacian([]int{4, size / 4})
	if err != nil {
		t.Fatal(err)
	}
	fd, err := NewFirstDifference(size)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := NewLpNorm(1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := NewLpNorm(2)
	if err != nil {
		t.Fatal(err)
	}
	l3, err := NewLpNorm(3)
	if err != nil {
		t.Fatal(err)
	}
	linf, err := NewLpNorm(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	// Random PSD quadratic form A = BᵀB.
	rng := rand.New(rand.NewSource(77))
	bm := make([][]float64, size)
	for i := range bm {
		bm[i] = make([]float64, size)
		for j := range bm[i] {
			bm[i][j] = rng.NormFloat64()
		}
	}
	am := make([][]float64, size)
	for i := range am {
		am[i] = make([]float64, size)
		for j := range am[i] {
			var s float64
			for k := 0; k < size; k++ {
				s += bm[k][i] * bm[k][j]
			}
			am[i][j] = s
		}
	}
	qf, err := NewQuadraticForm(am)
	if err != nil {
		t.Fatal(err)
	}
	combo, err := NewCombo([]float64{1, 2.5}, []Penalty{SSE{}, weighted})
	if err != nil {
		t.Fatal(err)
	}
	sob, err := NewSobolev(size, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	return []Penalty{SSE{}, weighted, cursored, lap, grid, fd, l1, l2, l3, linf, qf, combo, sob}
}

func TestPenaltyAxiomsAndImportanceIdentity(t *testing.T) {
	const size = 16
	for i, p := range allTestPenalties(t, size) {
		checkImportanceMatchesEval(t, p, size, int64(100+i))
		checkHomogeneity(t, p, size, int64(200+i))
		checkConvexity(t, p, size, int64(300+i))
	}
}

func TestSSEKnownValues(t *testing.T) {
	p := SSE{}
	if got := p.Eval([]float64{3, 4}); got != 25 {
		t.Fatalf("SSE = %g", got)
	}
	if p.Name() != "SSE" || p.Homogeneity() != 2 {
		t.Fatal("SSE metadata wrong")
	}
}

func TestWeightedValidation(t *testing.T) {
	if _, err := NewWeighted([]float64{1, -1}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewWeighted([]float64{0, 0}); err == nil {
		t.Error("all-zero weights should fail")
	}
	if _, err := NewWeighted([]float64{math.NaN()}); err == nil {
		t.Error("NaN weight should fail")
	}
	p, err := NewWeighted([]float64{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Eval([]float64{1, 5, 2}); got != 2+0+4 {
		t.Fatalf("Weighted = %g", got)
	}
}

func TestWeightedEvalPanicsOnLengthMismatch(t *testing.T) {
	p, _ := NewWeighted([]float64{1, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Eval([]float64{1})
}

func TestCursoredSemantics(t *testing.T) {
	p, err := Cursored(4, []int{1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Same magnitude error at a cursored position costs 10x.
	in := p.Eval([]float64{0, 1, 0, 0})
	out := p.Eval([]float64{1, 0, 0, 0})
	if in != 10*out {
		t.Fatalf("cursored weight: in=%g out=%g", in, out)
	}
	if _, err := Cursored(4, []int{9}, 10); err == nil {
		t.Error("cursor index out of range should fail")
	}
	if _, err := Cursored(4, []int{0}, 0); err == nil {
		t.Error("zero weight should fail")
	}
}

func TestLaplacianPenalizesFalseExtrema(t *testing.T) {
	// A spike error (false local extremum) must cost much more than the
	// same-energy constant error, which the Laplacian ignores entirely.
	p, err := NewLaplacian(8)
	if err != nil {
		t.Fatal(err)
	}
	spike := make([]float64, 8)
	spike[4] = 1
	flat := make([]float64, 8)
	for i := range flat {
		flat[i] = 1 / math.Sqrt(8) // same L2 energy as the spike
	}
	if p.Eval(flat) > 1e-12 {
		t.Fatalf("Laplacian should ignore constant error, got %g", p.Eval(flat))
	}
	if p.Eval(spike) < 1 {
		t.Fatalf("Laplacian should punish spikes, got %g", p.Eval(spike))
	}
	if _, err := NewLaplacian(1); err == nil {
		t.Error("batch of 1 should fail")
	}
}

func TestGridLaplacianStructure(t *testing.T) {
	p, err := NewGridLaplacian([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Constant error vector is in the kernel.
	e := []float64{2, 2, 2, 2, 2, 2}
	if p.Eval(e) > 1e-12 {
		t.Fatalf("grid Laplacian of constant = %g", p.Eval(e))
	}
	if _, err := NewGridLaplacian([]int{1, 1}); err == nil {
		t.Error("single cell should fail")
	}
	if _, err := NewGridLaplacian([]int{0, 3}); err == nil {
		t.Error("zero dimension should fail")
	}
}

func TestFirstDifferenceSemantics(t *testing.T) {
	p, err := NewFirstDifference(4)
	if err != nil {
		t.Fatal(err)
	}
	// Constant error: invisible. Jump: visible.
	if got := p.Eval([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant error cost %g", got)
	}
	if got := p.Eval([]float64{0, 0, 1, 1}); got != 1 {
		t.Fatalf("jump cost %g, want 1", got)
	}
	if _, err := NewFirstDifference(1); err == nil {
		t.Error("batch of 1 should fail")
	}
}

func TestLpNormValidationAndValues(t *testing.T) {
	if _, err := NewLpNorm(0.5); err == nil {
		t.Error("p<1 should fail")
	}
	if _, err := NewLpNorm(math.NaN()); err == nil {
		t.Error("NaN p should fail")
	}
	l1, _ := NewLpNorm(1)
	if got := l1.Eval([]float64{1, -2, 3}); got != 6 {
		t.Fatalf("L1 = %g", got)
	}
	l2, _ := NewLpNorm(2)
	if got := l2.Eval([]float64{3, 4}); got != 5 {
		t.Fatalf("L2 = %g", got)
	}
	linf, _ := NewLpNorm(math.Inf(1))
	if got := linf.Eval([]float64{1, -7, 3}); got != 7 {
		t.Fatalf("Linf = %g", got)
	}
	if linf.Name() != "Linf" || l2.Name() != "L2" {
		t.Fatal("names wrong")
	}
}

func TestQuadraticFormValidation(t *testing.T) {
	if _, err := NewQuadraticForm(nil); err == nil {
		t.Error("empty matrix should fail")
	}
	if _, err := NewQuadraticForm([][]float64{{1, 2}}); err == nil {
		t.Error("non-square should fail")
	}
	if _, err := NewQuadraticForm([][]float64{{1, 2}, {3, 1}}); err == nil {
		t.Error("asymmetric should fail")
	}
	if _, err := NewQuadraticForm([][]float64{{-1, 0}, {0, 1}}); err == nil {
		t.Error("negative diagonal should fail")
	}
	qf, err := NewQuadraticForm([][]float64{{2, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// eᵀAe for e=(1,1): 2+1+1+2 = 6.
	if got := qf.Eval([]float64{1, 1}); got != 6 {
		t.Fatalf("QuadraticForm = %g", got)
	}
}

func TestQuadraticFormMatrixCopied(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	qf, err := NewQuadraticForm(a)
	if err != nil {
		t.Fatal(err)
	}
	a[0][0] = 99
	if got := qf.Eval([]float64{1, 0}); got != 1 {
		t.Fatal("matrix aliased caller's slice")
	}
}

func TestComboValidation(t *testing.T) {
	l2, _ := NewLpNorm(2)
	if _, err := NewCombo([]float64{1}, []Penalty{SSE{}, SSE{}}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewCombo(nil, nil); err == nil {
		t.Error("empty combo should fail")
	}
	if _, err := NewCombo([]float64{-1}, []Penalty{SSE{}}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewCombo([]float64{1, 1}, []Penalty{SSE{}, l2}); err == nil {
		t.Error("mixed homogeneity should fail")
	}
	c, err := NewCombo([]float64{2, 3}, []Penalty{SSE{}, SSE{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Eval([]float64{1, 1}); got != 10 {
		t.Fatalf("Combo = %g", got)
	}
	if c.Homogeneity() != 2 {
		t.Fatal("Combo homogeneity wrong")
	}
}

func TestSobolevSemantics(t *testing.T) {
	// λ=0 degenerates to SSE.
	p0, err := NewSobolev(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p0.Name() != "SSE" {
		t.Fatalf("λ=0 Sobolev = %s", p0.Name())
	}
	p, err := NewSobolev(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// e = (0,1,0,0): SSE 1, differences (1,-1,0) → 2; total 1 + 2·2 = 5.
	if got := p.Eval([]float64{0, 1, 0, 0}); got != 5 {
		t.Fatalf("Sobolev = %g, want 5", got)
	}
	if p.Homogeneity() != 2 {
		t.Fatal("Sobolev homogeneity wrong")
	}
	if p.Name() != "Sobolev(λ=2)" {
		t.Fatalf("Name = %s", p.Name())
	}
	if _, err := NewSobolev(4, -1); err == nil {
		t.Error("negative λ should fail")
	}
	if _, err := NewSobolev(1, 1); err == nil {
		t.Error("batch of 1 should fail")
	}
}

// Property: SSE equals Weighted with unit weights and L2 squared.
func TestQuickPenaltyRelations(t *testing.T) {
	unit, err := NewWeighted([]float64{1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := NewLpNorm(2)
	f := func(raw [6]float64) bool {
		e := make([]float64, 6)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			e[i] = math.Mod(v, 1e3)
		}
		sse := SSE{}.Eval(e)
		if math.Abs(sse-unit.Eval(e)) > 1e-9*(1+sse) {
			return false
		}
		n := l2.Eval(e)
		return math.Abs(n*n-sse) <= 1e-7*(1+sse)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSSEImportance(b *testing.B) {
	idxs := []int32{3, 17, 200}
	vals := []float64{0.5, -1.2, 3.3}
	p := SSE{}
	for i := 0; i < b.N; i++ {
		_ = p.Importance(idxs, vals)
	}
}

func BenchmarkLaplacianImportance(b *testing.B) {
	p, err := NewLaplacian(512)
	if err != nil {
		b.Fatal(err)
	}
	idxs := []int32{3, 17, 200}
	vals := []float64{0.5, -1.2, 3.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Importance(idxs, vals)
	}
}
