package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/penalty"
	"repro/internal/sparse"
)

func TestQueryErrorBoundHoldsAndShrinks(t *testing.T) {
	fx := newFixture(t, 10)
	// K = Σ|Δ̂| over the store.
	var mass float64
	fx.store.ForEachNonzero(func(_ int, v float64) bool {
		mass += math.Abs(v)
		return true
	})
	run := NewRun(fx.plan, penalty.SSE{}, fx.store)
	prev := run.QueryErrorBounds(mass)
	for step := 0; !run.Done(); step++ {
		run.Step()
		if step%500 != 0 {
			continue
		}
		cur := run.QueryErrorBounds(mass)
		for i := range cur {
			// The bound never increases.
			if cur[i] > prev[i]+1e-9*(1+prev[i]) {
				t.Fatalf("step %d query %d: bound grew %g -> %g", step, i, prev[i], cur[i])
			}
			// The bound dominates the actual error on the real database.
			actual := math.Abs(run.Estimates()[i] - fx.truth[i])
			if actual > cur[i]+1e-6*(1+cur[i]) {
				t.Fatalf("step %d query %d: actual error %g exceeds bound %g",
					step, i, actual, cur[i])
			}
		}
		prev = cur
	}
	for i, b := range run.QueryErrorBounds(mass) {
		if b != 0 {
			t.Fatalf("query %d: bound %g after completion", i, b)
		}
	}
}

func TestQueryErrorBoundAttainedByPointMass(t *testing.T) {
	// Build a tiny plan; after retrieving some entries, concentrate the
	// data mass on the query's largest unretrieved coefficient: the actual
	// error must equal the bound.
	rng := rand.New(rand.NewSource(811))
	vectors := tinyBatch(rng, 3, 16)
	plan, err := NewPlan(vectors, nil)
	if err != nil {
		t.Fatal(err)
	}
	mass := 1.75
	zero := newSliceStore(make([]float64, 16))
	run := NewRun(plan, penalty.SSE{}, zero)
	run.StepN(plan.DistinctCoefficients() / 2)

	for qi := 0; qi < plan.NumQueries(); qi++ {
		bound := run.QueryErrorBound(qi, mass)
		if bound == 0 {
			continue
		}
		// Find the query's largest unretrieved |coefficient| and its key by
		// replaying the plan against the retrieved prefix.
		var bestMag float64
		bestKey := -1
		var bestCoeff float64
		for i := range plan.keys {
			if run.entryRetrieved(int32(i)) {
				continue
			}
			idxs, cs := plan.entryRefs(i)
			for k, q := range idxs {
				if int(q) == qi {
					if m := math.Abs(cs[k]); m > bestMag {
						bestMag = m
						bestKey = plan.keys[i]
						bestCoeff = cs[k]
					}
				}
			}
		}
		if bestKey < 0 {
			t.Fatalf("query %d: bound %g but no unretrieved coefficients", qi, bound)
		}
		if math.Abs(bound-mass*bestMag) > 1e-12*(1+bound) {
			t.Fatalf("query %d: bound %g != K·max %g", qi, bound, mass*bestMag)
		}
		// Adversarial database: estimates are zero (zero store), so the
		// error equals ⟨q̂, Δ̂⟩ restricted to unretrieved keys = mass·coeff.
		adversarialErr := math.Abs(mass * bestCoeff)
		if math.Abs(adversarialErr-bound) > 1e-12*(1+bound) {
			t.Fatalf("query %d: adversarial error %g != bound %g", qi, adversarialErr, bound)
		}
	}
}

func TestQueryErrorBoundLazyInitCostsNothingUntilUsed(t *testing.T) {
	plan, err := NewPlan([]sparse.Vector{{1: 1, 2: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := newSliceStore(make([]float64, 4))
	run := NewRun(plan, penalty.SSE{}, store)
	if plan.boundPos != nil || run.boundNext != nil {
		t.Fatal("bound index built eagerly")
	}
	_ = run.QueryErrorBound(0, 1)
	if plan.boundPos == nil || run.boundNext == nil {
		t.Fatal("bound index not built on demand")
	}
	// A later run on the plan reuses the index instead of rebuilding it.
	built := &plan.boundPos[0]
	_ = NewRun(plan, penalty.SSE{}, store).QueryErrorBound(0, 1)
	if &plan.boundPos[0] != built {
		t.Fatal("bound index rebuilt for a second run")
	}
}

// TestQueryErrorBoundsAllocsOnWarmPlan pins the per-run cost of the shared
// bound index: once a plan's index is built, a fresh run's first
// QueryErrorBounds allocates only its cursor slice and the output slice on
// top of NewRun's own allocations, at any plan size.
func TestQueryErrorBoundsAllocsOnWarmPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(823))
	for _, size := range []struct{ queries, keys int }{{1, 8}, {4, 64}, {16, 2048}} {
		plan, err := NewPlan(tinyBatch(rng, size.queries, size.keys), nil)
		if err != nil {
			t.Fatal(err)
		}
		store := newSliceStore(make([]float64, size.keys))
		NewRun(plan, penalty.SSE{}, store).QueryErrorBounds(1)
		base := testing.AllocsPerRun(50, func() {
			_ = NewRun(plan, penalty.SSE{}, store)
		})
		got := testing.AllocsPerRun(50, func() {
			_ = NewRun(plan, penalty.SSE{}, store).QueryErrorBounds(1)
		})
		if got-base != 2 {
			t.Fatalf("%d queries x %d keys: first QueryErrorBounds on a warm plan costs %v allocs, want 2",
				size.queries, size.keys, got-base)
		}
	}
}
