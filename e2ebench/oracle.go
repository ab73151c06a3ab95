package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro"
	"repro/internal/server"
)

// exactTol is the relative tolerance of an exact answer. Wavelet sums and
// the oracle's direct cell sums round differently, so the tolerance is
// relative to the largest answer of the batch: a small group cell next to
// large ones inherits the rounding of the large ones.
const exactTol = 1e-9

// oracle computes exact answers on the generated distribution, directly
// from the cells (repro.Batch.EvaluateDirect), independent of the wavelet
// path under test.
type oracle struct {
	in *inputs
	mu sync.Mutex
}

// exactFor returns b's exact answers on the base distribution in the order
// responses carry them.
func (o *oracle) exactFor(b *genBatch, prepared bool) []float64 {
	o.mu.Lock()
	ex := b.exact
	o.mu.Unlock()
	if ex == nil {
		stmt := b.batch.EvaluateDirect(o.in.dist)
		ex = stmt
		if prepared {
			ex = make([]float64, len(stmt))
			for i, p := range b.perm {
				ex[p] = stmt[i]
			}
		}
		o.mu.Lock()
		b.exact = ex
		o.mu.Unlock()
	}
	return ex
}

// precompute fills the exact answers of every batch the samples use, on
// two goroutines.
func (o *oracle) precompute(samples []sample) {
	seen := map[*genBatch]bool{}
	var todo []request
	for _, s := range samples {
		if !seen[s.req.b] {
			seen[s.req.b] = true
			todo = append(todo, s.req)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(todo); i += 2 {
				o.exactFor(todo[i].b, todo[i].prepared)
			}
		}(g)
	}
	wg.Wait()
}

// versioned is the oracle under MVCC: the exact answer at version V is the
// base answer plus the batch evaluated on a delta distribution holding the
// tuples the writer logged for versions 1..V. Samples are checked in
// ascending version order, so the delta only grows.
type versioned struct {
	o     *oracle
	log   map[uint64][][]int
	delta *repro.Distribution
	at    uint64
	// answers caches the exact answers at version at.
	answers map[*genBatch][]float64
}

// exactAt returns b's exact answers at version v (canonical order for
// prepared batches), or an error when the log does not cover v. Calls must
// not go back to an earlier version other than 0.
func (vo *versioned) exactAt(b *genBatch, prepared bool, v uint64) ([]float64, error) {
	base := vo.o.exactFor(b, prepared)
	if v == 0 {
		return base, nil
	}
	for vo.at < v {
		tuples, ok := vo.log[vo.at+1]
		if !ok {
			return nil, fmt.Errorf("response at version %d, which the writer's log does not record", vo.at+1)
		}
		for _, t := range tuples {
			vo.delta.AddTuple(t)
		}
		vo.at++
		clear(vo.answers)
	}
	if ex, ok := vo.answers[b]; ok {
		return ex, nil
	}
	queries := b.batch
	if prepared {
		queries = b.canon
	}
	ex := queries.EvaluateDirect(vo.delta)
	for i := range ex {
		ex[i] += base[i]
	}
	vo.answers[b] = ex
	return ex, nil
}

// checkAnswer compares one response with the exact answers: exact
// responses must match within exactTol of the batch scale, progressive ones
// must satisfy |estimate − exact| ≤ bound (plus the same rounding slack).
// It returns the relative errors of the estimates whose exact answer is
// nonzero.
func checkAnswer(resp *server.QueryResponse, exact []float64, queries repro.Batch, wantExact bool) ([]float64, error) {
	if len(resp.Results) != len(exact) {
		return nil, fmt.Errorf("%d results, want %d", len(resp.Results), len(exact))
	}
	if wantExact && !resp.Exact {
		if resp.Degraded {
			return nil, fmt.Errorf("exact request answered degraded (206): %d of %d keys skipped", resp.Skipped, resp.Distinct)
		}
		return nil, fmt.Errorf("exact request answered progressively (retrieved %d of %d)", resp.Retrieved, resp.Distinct)
	}
	var scale float64
	for _, e := range exact {
		scale = math.Max(scale, math.Abs(e))
	}
	slack := exactTol * math.Max(scale, 1)
	var rel []float64
	for i, r := range resp.Results {
		if queries != nil && r.Query != queries[i].Label {
			return nil, fmt.Errorf("result %d is %q, want %q", i, r.Query, queries[i].Label)
		}
		diff := math.Abs(r.Estimate - exact[i])
		switch {
		case resp.Exact:
			if diff > slack || math.IsNaN(r.Estimate) {
				return nil, fmt.Errorf("result %d: exact %v, oracle %v", i, r.Estimate, exact[i])
			}
		case r.Bound == nil:
			return nil, fmt.Errorf("result %d: progressive answer without a bound", i)
		default:
			if diff > *r.Bound+slack || math.IsNaN(r.Estimate) {
				return nil, fmt.Errorf("result %d: |%v − %v| = %v exceeds bound %v", i, r.Estimate, exact[i], diff, *r.Bound)
			}
		}
		if exact[i] != 0 {
			rel = append(rel, diff/math.Abs(exact[i]))
		}
	}
	return rel, nil
}

// checkResult is the outcome of checking a run's answers.
type checkResult struct {
	failed  int
	reasons map[string]int
	// meanRelErr is the mean relative error over the first relErrPrefix
	// sequence positions of every client (deterministic per seed).
	meanRelErr float64
}

const relErrPrefix = 100

// checkAll checks every query sample and ingest sample.
func (o *oracle) checkAll(w workload, samples []sample, ingests []ingestSample) checkResult {
	cr := checkResult{reasons: map[string]int{}}
	fail := func(reason string) {
		cr.failed++
		if len(cr.reasons) < 8 || cr.reasons[reason] > 0 {
			cr.reasons[reason]++
		}
	}
	var vo *versioned
	if w.ingestRate > 0 {
		vo = &versioned{o: o, log: map[uint64][][]int{}, delta: repro.NewDistribution(o.in.schema), answers: map[*genBatch][]float64{}}
		for _, s := range ingests {
			switch {
			case s.err != "":
				fail("ingest: " + s.err)
			case s.version != uint64(s.idx+1):
				fail(fmt.Sprintf("ingest %d published version %d, want %d", s.idx, s.version, s.idx+1))
			default:
				vo.log[s.version] = o.in.ingest[s.idx]
			}
		}
	}
	o.precompute(samples)
	// The versioned oracle walks the versions upwards.
	sort.SliceStable(samples, func(i, j int) bool { return version(samples[i]) < version(samples[j]) })
	var relSum float64
	var relN int
	for _, s := range samples {
		if s.err != "" {
			fail(s.err)
			continue
		}
		var ex []float64
		switch {
		case vo == nil:
			ex = o.exactFor(s.req.b, s.req.prepared)
		case s.resp.Version == nil:
			fail("MVCC response without a version")
			continue
		default:
			var err error
			if ex, err = vo.exactAt(s.req.b, s.req.prepared, *s.resp.Version); err != nil {
				fail(err.Error())
				continue
			}
		}
		queries := s.req.b.batch
		if s.req.prepared {
			queries = s.req.b.canon
		}
		rel, err := checkAnswer(s.resp, ex, queries, w.budget == 0)
		if err != nil {
			fail(err.Error())
			continue
		}
		if s.seq < relErrPrefix {
			for _, r := range rel {
				relSum += r
				relN++
			}
		}
	}
	if relN > 0 {
		cr.meanRelErr = relSum / float64(relN)
	}
	return cr
}

func version(s sample) uint64 {
	if s.resp == nil || s.resp.Version == nil {
		return 0
	}
	return *s.resp.Version
}

// checkerSelfTest feeds the checker a perturbed exact estimate and a
// progressive answer whose bound is too small, and expects both to be
// counted as failures, next to a correct answer that must pass.
func checkerSelfTest() error {
	schema, err := repro.NewSchema([]string{"a", "b"}, []int{8, 8})
	if err != nil {
		return err
	}
	dist := repro.NewDistribution(schema)
	for i := 0; i < 40; i++ {
		dist.AddTuple([]int{i % 8, (i * 3) % 8})
	}
	batch, err := repro.ParseBatch(schema, "COUNT() WHERE a BETWEEN 1 AND 5 GROUP BY b(4); SUM(a) WHERE b < 4")
	if err != nil {
		return err
	}
	in := &inputs{schema: schema, dist: dist}
	b := &genBatch{batch: batch}
	o := &oracle{in: in}
	ex := o.exactFor(b, false)
	mk := func(est []float64, bounds []float64) *server.QueryResponse {
		r := &server.QueryResponse{Exact: bounds == nil}
		for i := range est {
			qr := server.QueryResult{Query: batch[i].Label, Estimate: est[i]}
			if bounds != nil {
				bd := bounds[i]
				qr.Bound = &bd
			}
			r.Results = append(r.Results, qr)
		}
		return r
	}
	w := workload{budget: 0}
	good := sample{req: request{b: b}, resp: mk(ex, nil)}
	perturbed := append([]float64(nil), ex...)
	perturbed[1] *= 1 + 1e-6
	bad := sample{req: request{b: b}, resp: mk(perturbed, nil)}
	cr := o.checkAll(w, []sample{good, bad}, nil)
	if cr.failed != 1 {
		return fmt.Errorf("perturbed exact estimate: %d failures counted, want 1", cr.failed)
	}
	off := append([]float64(nil), ex...)
	bounds := make([]float64, len(ex))
	for i := range off {
		off[i] += 2
		bounds[i] = 3
	}
	w.budget = 1
	okProg := sample{req: request{b: b}, resp: mk(off, bounds)}
	small := append([]float64(nil), bounds...)
	small[0] = 1
	badProg := sample{req: request{b: b}, resp: mk(off, small)}
	cr = o.checkAll(w, []sample{okProg, badProg}, nil)
	if cr.failed != 1 {
		return fmt.Errorf("too-small bound: %d failures counted, want 1", cr.failed)
	}
	return nil
}
