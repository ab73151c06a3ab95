package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mvcc"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/storage/layout"
)

// The traced run replays a workload's request sequence inside the
// benchmark process. It calls the layers' Go functions in the order
// internal/server calls them — JSON decode, ql parse, plan registry, MVCC
// pin, core.NewRun, sched.Submit, render — and wraps each storage tier in a
// timing decorator. Spans are recorded around those calls only; nothing is
// traced inside the program.

// span is one timed call. Parent is the index of the enclosing span of the
// same request (-1 for the request's root).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(req int64, parent int32, name string) int32 {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// rename relabels a finished span (a registry Prepare that turned out to
// build a plan).
func (t *tracer) rename(id int32, name string) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// spanCtx rides the request context into the storage decorators.
type spanCtx struct {
	req  int64
	span int32
}

type spanKey struct{}

// tierCounts counts one tier's BatchGetCtx calls and keys; it outlives the
// decorators of a tier that MVCC compaction rebuilds.
type tierCounts struct {
	calls, keys atomic.Int64
}

// timedStore is a storage.FallibleStore decorator that records a span per
// BatchGetCtx into the tier below and counts calls and keys.
type timedStore struct {
	storage.FallibleStore
	tr     *tracer
	name   string
	counts *tierCounts
}

func newTimed(tr *tracer, name string, inner storage.Store, counts *tierCounts) *timedStore {
	return &timedStore{FallibleStore: storage.AsFallible(inner), tr: tr, name: name, counts: counts}
}

func (s *timedStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	s.counts.calls.Add(1)
	s.counts.keys.Add(int64(len(keys)))
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	if !s.tr.on || sc.req == 0 {
		return s.FallibleStore.BatchGetCtx(ctx, keys, dst)
	}
	id := s.tr.begin(sc.req, sc.span, s.name)
	err := s.FallibleStore.BatchGetCtx(context.WithValue(ctx, spanKey{}, spanCtx{sc.req, id}), keys, dst)
	s.tr.end(id)
	return err
}

// ConcurrentSafe marks the decorator safe for the coalescing layer; every
// tier it wraps here is concurrent-safe.
func (s *timedStore) ConcurrentSafe() {}

// stack is the in-process copy of one deployment's store stack.
type stack struct {
	top storage.Store // store runs read (nil under MVCC: per snapshot)
	// mu guards coalesce and tiers, which the MVCC compactor extends when
	// it rebuilds the base chain.
	mu       sync.Mutex
	coalesce []*storage.CoalescingStore
	tiers    map[string]*tierCounts
	layout   *layout.Store
	mv       *mvcc.Store
	mvReg    *obs.Registry
	coord    *dist.CoordinatorStore
	closers  []func()
}

func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
}

func (st *stack) tier(tr *tracer, name string, inner storage.Store) *timedStore {
	st.mu.Lock()
	defer st.mu.Unlock()
	c := st.tiers[name]
	if c == nil {
		c = &tierCounts{}
		st.tiers[name] = c
	}
	return newTimed(tr, name, inner, c)
}

// coalesceStats sums the counters of every coalescing layer the stack built.
func (st *stack) coalesceStats() storage.CoalesceStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	var total storage.CoalesceStats
	for _, c := range st.coalesce {
		s := c.Stats()
		total.Requests += s.Requests
		total.Fetched += s.Fetched
		total.Coalesced += s.Coalesced
	}
	return total
}

// buildStack assembles the workload's store stack the way wvqd does:
// the serving tier, then the coalescing layer the server inserts.
func buildStack(w workload, in *inputs, tr *tracer) (*stack, error) {
	st := &stack{tiers: map[string]*tierCounts{}}
	loadBase := func() (storage.Store, int64, error) {
		f, err := os.Open(in.dbPath)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		snap, err := codec.Read(f)
		if err != nil {
			return nil, 0, err
		}
		return snap.Store(), snap.TupleCount, nil
	}
	coalesce := func(inner storage.Store) storage.Store {
		c, ok := inner.(storage.Concurrent)
		if !ok {
			c = storage.NewConcurrentStore(inner)
		}
		cs := storage.NewCoalescingStore(c)
		st.mu.Lock()
		st.coalesce = append(st.coalesce, cs)
		st.mu.Unlock()
		return st.tier(tr, "storage", cs)
	}
	switch w.mode {
	case "mem":
		base, _, err := loadBase()
		if err != nil {
			return nil, err
		}
		st.top = coalesce(base)
	case "layout":
		ls, err := layout.Open(in.wvlsPath, layout.Options{})
		if err != nil {
			return nil, err
		}
		st.layout = ls
		st.closers = append(st.closers, func() { _ = ls.Close() })
		st.top = coalesce(st.tier(tr, "layout", ls))
	case "mvcc":
		base, tuples, err := loadBase()
		if err != nil {
			return nil, err
		}
		st.mvReg = obs.NewRegistry()
		mvcc.Observe(st.mvReg)
		st.closers = append(st.closers, func() { mvcc.Observe(nil) })
		mv, err := mvcc.New(base, repro.Db4, attrSizes, tuples, mvcc.Config{})
		if err != nil {
			return nil, err
		}
		st.mv = mv
		st.closers = append(st.closers, mv.WaitCompactions)
		mv.WrapBase(coalesce)
	case "sharded":
		var addrs []string
		var shards []storage.FallibleStore
		logger := slog.New(slog.NewTextHandler(io.Discard, nil))
		for i := 0; i < 2; i++ {
			f, err := os.Open(in.dbPath)
			if err != nil {
				return nil, err
			}
			db, err := repro.LoadDatabase(f)
			_ = f.Close()
			if err != nil {
				return nil, err
			}
			ss, err := db.NewShardServer(i, 2, logger)
			if err != nil {
				return nil, err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			served := make(chan struct{})
			go func() {
				defer close(served)
				_ = ss.Serve(ln)
			}()
			st.closers = append(st.closers, func() { _ = ss.Close(); <-served })
			rs := dist.NewRemoteStore(ln.Addr().String(), dist.ClientConfig{})
			st.closers = append(st.closers, func() { _ = rs.Close() })
			addrs = append(addrs, ln.Addr().String())
			shards = append(shards, st.tier(tr, "dist.shard", rs))
		}
		coord, err := dist.NewCoordinator(shards, addrs)
		if err != nil {
			return nil, err
		}
		st.coord = coord
		st.top = coalesce(st.tier(tr, "dist", coord))
	}
	return st, nil
}

// replay is one in-process replay of a workload.
type replay struct {
	w       workload
	in      *inputs
	tr      *tracer
	st      *stack
	reg     *core.PlanRegistry
	sch     *sched.Scheduler
	reqs    atomic.Int64
	mu      sync.Mutex
	results []reqResult
	applies []time.Duration
	pins    []int // overlay depth at each pin
	bounds  map[*core.Plan]time.Duration
}

// reqResult is what one replayed request reports besides its spans.
type reqResult struct {
	req       int64
	parsed    bool
	terms     int
	retrieved int
	firstEst  time.Duration
	total     time.Duration
	runSpan   int32
	failed    bool
}

func newReplay(w workload, in *inputs, on bool) (*replay, error) {
	tr := &tracer{on: on, t0: time.Now()}
	st, err := buildStack(w, in, tr)
	if err != nil {
		return nil, err
	}
	rp := &replay{w: w, in: in, tr: tr, st: st, bounds: map[*core.Plan]time.Duration{}}
	rp.reg = core.NewPlanRegistry(repro.Db4, 0)
	rp.reg.WarmSchedules(repro.SSE())
	rp.sch = sched.New(sched.Config{Slice: w.slice, MaxPreparedPerTenant: -1})
	for _, b := range in.prepared {
		if _, _, _, err := rp.reg.Prepare(b.batch, tenant); err != nil {
			rp.close()
			return nil, err
		}
	}
	return rp, nil
}

func (rp *replay) close() {
	rp.sch.Close()
	rp.st.close()
}

// do executes one request the way the server's admit + query/stream do.
func (rp *replay) do(ctx context.Context, r request) reqResult {
	tr := rp.tr
	req := rp.reqs.Add(1)
	res := reqResult{req: req, runSpan: -1}
	var qr server.QueryRequest
	var plan *core.Plan
	var batch repro.Batch
	var perm []int32

	start := time.Now()
	root := tr.begin(req, -1, "request")
	id := tr.begin(req, root, "server.decode")
	dec := json.NewDecoder(bytes.NewReader(r.b.body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&qr)
	tr.end(id)
	if err != nil {
		res.failed = true
		return res
	}
	if qr.Handle != "" {
		id = tr.begin(req, root, "core.registry.prepare")
		prep, ok := rp.reg.Lookup(qr.Handle)
		tr.end(id)
		if !ok {
			res.failed = true
			return res
		}
		plan, batch = prep.Plan, prep.Batch
	} else {
		id = tr.begin(req, root, "ql.parse")
		parsed, err := repro.ParseBatch(rp.in.schema, qr.Statements)
		tr.end(id)
		res.parsed = true
		if err != nil {
			res.failed = true
			return res
		}
		id = tr.begin(req, root, "core.registry.prepare")
		prep, p, hit, err := rp.reg.Prepare(parsed, "")
		tr.end(id)
		if !hit {
			tr.rename(id, "core.plan.build")
		}
		if err != nil {
			res.failed = true
			return res
		}
		plan, batch, perm = prep.Plan, parsed, p
	}
	res.terms = plan.TotalQueryCoefficients()
	budget := qr.Budget
	if budget >= plan.DistinctCoefficients() {
		budget = 0
	}
	store, mass := rp.st.top, rp.in.mass
	var sn *mvcc.Snapshot
	if rp.st.mv != nil {
		id = tr.begin(req, root, "mvcc.snapshot")
		sn = rp.st.mv.Snapshot()
		tr.end(id)
		rp.mu.Lock()
		rp.pins = append(rp.pins, rp.st.mv.Stats().Layers)
		rp.mu.Unlock()
		defer sn.Release()
		store, mass = rp.st.tier(tr, "mvcc", sn.View()), sn.Mass()
	}
	id = tr.begin(req, root, "core.run.new")
	run := core.NewRun(plan, repro.SSE(), store)
	tr.end(id)
	runSpan := tr.begin(req, root, "sched.run")
	res.runSpan = runSpan
	runCtx := context.WithValue(ctx, spanKey{}, spanCtx{req, runSpan})
	ticket, err := rp.sch.Submit(runCtx, sched.Job{Run: run, Budget: budget, Mass: mass})
	if err != nil {
		tr.end(runSpan)
		tr.end(root)
		res.failed = true
		return res
	}
	render := func(p sched.Progress, event string) {
		id := tr.begin(req, root, "server.render")
		resp := server.QueryResponse{Exact: p.Done && !p.Degraded, Retrieved: p.Retrieved,
			Distinct: plan.DistinctCoefficients(), Results: make([]server.QueryResult, len(batch))}
		for i, q := range batch {
			slot := i
			if perm != nil {
				slot = int(perm[i])
			}
			qres := server.QueryResult{Query: q.Label, Estimate: p.Estimates[slot]}
			if !resp.Exact && p.Bounds != nil {
				b := p.Bounds[slot]
				qres.Bound = &b
			}
			resp.Results[i] = qres
		}
		var buf bytes.Buffer
		if rp.w.stream {
			data, _ := json.Marshal(resp)
			fmt.Fprintf(&buf, "event: %s\ndata: %s\n\n", event, data)
		} else {
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			_ = enc.Encode(resp)
		}
		tr.end(id)
	}
	if rp.w.stream {
	loop:
		for {
			select {
			case p := <-ticket.Progress():
				if p.Done {
					continue
				}
				if res.firstEst == 0 {
					res.firstEst = time.Since(start)
				}
				render(p, "progress")
			case <-ticket.Done():
				break loop
			}
		}
	}
	final, err := ticket.Final()
	tr.end(runSpan)
	if res.firstEst == 0 {
		res.firstEst = time.Since(start)
	}
	if err != nil {
		res.failed = true
	} else {
		render(final, "done")
	}
	tr.end(root)
	res.total = time.Since(start)
	res.retrieved = final.Retrieved
	rp.measureBounds(plan, store, mass)
	return res
}

// measureBounds times the first QueryErrorBounds call on a fresh Run, which
// builds the per-query bound index, once per distinct plan and outside the
// timed requests.
func (rp *replay) measureBounds(p *core.Plan, store storage.Store, mass float64) {
	rp.mu.Lock()
	_, seen := rp.bounds[p]
	rp.mu.Unlock()
	if seen {
		return
	}
	run := core.NewRun(p, repro.SSE(), store)
	t0 := time.Now()
	run.QueryErrorBounds(mass)
	d := time.Since(t0)
	rp.mu.Lock()
	rp.bounds[p] = d
	rp.mu.Unlock()
}

// drive runs the closed-loop clients (and the open-loop writer) against the
// replay for window.
func (rp *replay) drive(ctx context.Context, seed int64, window time.Duration) {
	end := time.Now().Add(window)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < rp.w.clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			seq := newSequence(rp.in, rp.w, seed, client)
			var local []reqResult
			for time.Now().Before(end) && ctx.Err() == nil {
				local = append(local, rp.do(ctx, seq.draw()))
			}
			rp.mu.Lock()
			rp.results = append(rp.results, local...)
			rp.mu.Unlock()
		}(c)
	}
	if rp.st.mv != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			interval := time.Duration(float64(time.Second) / rp.w.ingestRate)
			for i := 0; i < len(rp.in.ingest) && ctx.Err() == nil; i++ {
				due := start.Add(time.Duration(i) * interval)
				if !due.Before(end) {
					break
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				b := mvcc.NewBatch()
				for _, t := range rp.in.ingest[i] {
					b.Add(t, 1)
				}
				t0 := time.Now()
				_, err := rp.st.mv.Apply(ctx, b)
				d := time.Since(t0)
				if err == nil {
					rp.mu.Lock()
					rp.applies = append(rp.applies, d)
					rp.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}

// traceRun runs the untraced and the traced in-process replay, a quarter of
// the measured window each, and derives the per-layer metrics. e2e holds the
// real deployment's end-to-end metrics, whose query_p50_ms the layers'
// medians are compared with.
func traceRun(ctx context.Context, cfg runConfig, in *inputs, e2e map[string]metric) (map[string]metric, error) {
	window := cfg.measure / 4
	plain, err := newReplay(cfg.w, in, false)
	if err != nil {
		return nil, err
	}
	plain.drive(ctx, cfg.seed, window)
	plain.close()
	var plainTotals []float64
	for _, r := range plain.results {
		plainTotals = append(plainTotals, float64(r.total)/1e3)
	}

	rp, err := newReplay(cfg.w, in, true)
	if err != nil {
		return nil, err
	}
	regBefore := rp.reg.Stats()
	schedBefore := rp.sch.Stats()
	var lsBefore layout.Stats
	if rp.st.layout != nil {
		lsBefore = rp.st.layout.Stats()
	}
	rp.drive(ctx, cfg.seed, window)
	rp.close()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := writeSpans(cfg, rp.tr.spans); err != nil {
		return nil, err
	}
	out := analyze(rp, e2e["query_p50_ms"].Value*1e3)
	out["trace.untraced_p50_us"] = metric{quantile(plainTotals, 0.5), "us"}

	n := float64(max(len(rp.results), 1))
	regAfter := rp.reg.Stats()
	lookups := float64(regAfter.Hits - regBefore.Hits + regAfter.Misses - regBefore.Misses)
	if lookups > 0 {
		out["core.registry.hit_ratio"] = metric{float64(regAfter.Hits-regBefore.Hits) / lookups, "ratio"}
	}
	out["core.registry.evictions"] = metric{float64(regAfter.Evictions - regBefore.Evictions), "count"}
	schedAfter := rp.sch.Stats()
	if done := schedAfter.Completed - schedBefore.Completed; done > 0 {
		out["sched.slices_per_query"] = metric{float64(schedAfter.Slices-schedBefore.Slices) / float64(done), "count"}
	}
	out["sched.rejected"] = metric{float64(schedAfter.Rejected - schedBefore.Rejected), "count"}
	if co := rp.st.coalesceStats(); co.Requests > 0 {
		out["storage.coalesced_ratio"] = metric{float64(co.Coalesced) / float64(co.Requests), "ratio"}
	}
	if t := rp.st.tiers["storage"]; t != nil && t.calls.Load() > 0 {
		out["storage.keys_per_batchget"] = metric{float64(t.keys.Load()) / float64(t.calls.Load()), "count"}
	}
	if rp.st.layout != nil {
		ls := rp.st.layout.Stats()
		loads := ls.BlockLoads - lsBefore.BlockLoads
		cold := ls.ColdHits - lsBefore.ColdHits
		out["layout.hot_keys"] = metric{float64(ls.HotHits-lsBefore.HotHits) / n, "count"}
		out["layout.block_loads"] = metric{float64(loads) / n, "count"}
		out["layout.lru_hits"] = metric{float64(cold-loads) / n, "count"}
		if loads > 0 {
			out["layout.keys_per_block_load"] = metric{float64(cold) / float64(loads), "count"}
		}
	}
	if rp.st.mv != nil {
		var ap []float64
		for _, d := range rp.applies {
			ap = append(ap, float64(d)/1e3)
		}
		out["mvcc.apply_us"] = metric{quantile(ap, 0.5), "us"}
		out["mvcc.apply_p90_us"] = metric{quantile(ap, 0.9), "us"}
		ms := rp.st.mv.Stats()
		if ms.AppliedTuples > 0 {
			out["mvcc.keys_per_tuple"] = metric{float64(ms.AppliedKeys) / float64(ms.AppliedTuples), "count"}
		}
		var pins []float64
		for _, l := range rp.pins {
			pins = append(pins, float64(l))
		}
		out["mvcc.layers_at_pin"] = metric{mean(pins), "count"}
		snap := rp.st.mvReg.Snapshot()
		out["mvcc.compactions"] = metric{snap["wvq_mvcc_compactions_total"], "count"}
		if c := snap["wvq_mvcc_compact_seconds_count"]; c > 0 {
			out["mvcc.compact_us"] = metric{snap["wvq_mvcc_compact_seconds_sum"] / c * 1e6, "us"}
		}
		out["bench.generator_late_ms"] = e2e["generator_late_ms"]
	}
	if rp.st.coord != nil {
		if t := rp.st.tiers["dist.shard"]; t.calls.Load() > 0 {
			out["dist.keys_per_shard_call"] = metric{float64(t.keys.Load()) / float64(t.calls.Load()), "count"}
		}
		var errs int64
		for _, h := range rp.st.coord.Health() {
			errs += h.Errors
			if h.Errors > 0 {
				fmt.Fprintf(os.Stderr, "shard %s: %d errors, last %q\n", h.Addr, h.Errors, h.LastError)
			}
		}
		out["dist.shard_errors"] = metric{float64(errs), "count"}
	}
	// Every per-layer metric is reported; layers off this workload's path
	// read 0.
	for _, name := range perLayerMetrics {
		if _, ok := out[name.name]; !ok {
			out[name.name] = metric{0, name.unit}
		}
	}
	return out, nil
}

// spanMetrics names the per-request self-time metrics by layer.
var spanMetrics = map[string]string{
	"server.decode":         "server.decode_us",
	"server.render":         "server.render_us",
	"ql.parse":              "ql.parse_us",
	"core.registry.prepare": "core.registry.prepare_us",
	"core.plan.build":       "core.plan.build_us",
	"core.run.new":          "core.run.new_us",
	"mvcc.snapshot":         "mvcc.snapshot_us",
	"mvcc":                  "mvcc.read_us",
	"storage":               "storage.batchget_us",
	"layout":                "layout.batchget_us",
	"dist":                  "dist.batchget_us",
	"dist.shard":            "dist.shard_rtt_us",
}

// analyze derives the span-based metrics: per request, each layer's self
// time (its spans minus their children), the scheduler queue delay (run
// start to the first storage call) and the core compute time (the run
// span's remaining self time).
func analyze(rp *replay, untracedP50us float64) map[string]metric {
	spans := rp.tr.spans
	// Self time is a span's duration minus the union of its children's
	// intervals: children can overlap (parallel shard calls, SSE renders
	// while the run advances).
	children := map[int32][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - unionLen(children[int32(i)])
	}
	type perReq struct {
		layer      map[string]float64
		firstChild int64
		rootDur    float64
		rootSelf   float64
	}
	reqs := map[int64]*perReq{}
	get := func(r int64) *perReq {
		p := reqs[r]
		if p == nil {
			p = &perReq{layer: map[string]float64{}, firstChild: -1}
			reqs[r] = p
		}
		return p
	}
	runSpans := map[int32]bool{}
	for _, r := range rp.results {
		if r.runSpan >= 0 {
			runSpans[r.runSpan] = true
		}
	}
	for i, s := range spans {
		p := get(s.Req)
		us := float64(self[i]) / 1e3
		switch {
		case s.Parent < 0:
			p.rootDur += float64(s.End-s.Start) / 1e3
			p.rootSelf += us
		case s.Name == "sched.run":
			p.layer["sched.run"] += us
		default:
			p.layer[s.Name] += us
			if runSpans[s.Parent] && (p.firstChild < 0 || s.Start < p.firstChild) {
				p.firstChild = s.Start
			}
		}
	}
	layers := map[string][]float64{}
	var allReqs []int64
	var covered, total float64
	var totals, firsts, terms, retrieved []float64
	var parsed int
	for _, r := range rp.results {
		if r.failed {
			continue
		}
		p := reqs[r.req]
		if p == nil {
			continue
		}
		allReqs = append(allReqs, r.req)
		queue := 0.0
		if p.firstChild >= 0 {
			queue = float64(p.firstChild-spans[r.runSpan].Start) / 1e3
		}
		p.layer["sched.queue"] = queue
		p.layer["core.run.compute"] = p.layer["sched.run"] - queue
		delete(p.layer, "sched.run")
		for name, us := range p.layer {
			layers[name] = append(layers[name], us)
		}
		covered += p.rootDur - p.rootSelf
		total += p.rootDur
		totals = append(totals, float64(r.total)/1e3)
		firsts = append(firsts, float64(r.firstEst)/1e3)
		terms = append(terms, float64(r.terms))
		retrieved = append(retrieved, float64(r.retrieved))
		if r.parsed {
			parsed++
		}
	}
	out := map[string]metric{}
	names := map[string]string{"sched.queue": "sched.queue_us", "core.run.compute": "core.run.compute_us"}
	for k, v := range spanMetrics {
		names[k] = v
	}
	var sumP50 float64
	for layer, vals := range layers {
		name, ok := names[layer]
		if !ok {
			continue
		}
		out[name] = metric{quantile(vals, 0.5), "us"}
		// The remainder compares with medians over every request, a layer
		// absent from a request counting 0 there.
		padded := append(append([]float64(nil), vals...), make([]float64, len(allReqs)-len(vals))...)
		sumP50 += quantile(padded, 0.5)
	}
	if b := layers["core.plan.build"]; len(b) > 0 {
		out["core.plan.build_p99_us"] = metric{quantile(b, 0.99), "us"}
	}
	n := float64(max(len(allReqs), 1))
	out["unattributed_us"] = metric{untracedP50us - sumP50, "us"}
	if total > 0 {
		out["trace.coverage"] = metric{covered / total, "ratio"}
	}
	out["trace.request_p50_us"] = metric{quantile(totals, 0.5), "us"}
	out["trace.first_estimate_p50_us"] = metric{quantile(firsts, 0.5), "us"}
	out["ql.parse_calls"] = metric{float64(parsed) / n, "count"}
	out["core.plan.terms"] = metric{mean(terms), "count"}
	out["core.run.retrievals_per_query"] = metric{mean(retrieved), "count"}
	var bi []float64
	for _, d := range rp.bounds {
		bi = append(bi, float64(d)/1e3)
	}
	out["core.run.bounds_init_us"] = metric{quantile(bi, 0.5), "us"}
	return out
}

// unionLen returns the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curStart, curEnd int64
	curEnd = -1
	for _, x := range iv {
		if x[0] > curEnd {
			if curEnd >= 0 {
				total += curEnd - curStart
			}
			curStart, curEnd = x[0], x[1]
		} else if x[1] > curEnd {
			curEnd = x[1]
		}
	}
	if curEnd >= 0 {
		total += curEnd - curStart
	}
	return total
}

// writeSpans writes the traced run's spans as JSON lines under the build
// directory's traces folder.
func writeSpans(cfg runConfig, spans []span) error {
	dir := filepath.Join(cfg.buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	return f.Close()
}

// perLayerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them. The dist.* metrics are reported only by the
// sharded workload, which BENCHMARK.json does not list.
var perLayerMetrics = []struct{ name, unit string }{
	{"server.decode_us", "us"}, {"server.render_us", "us"}, {"unattributed_us", "us"},
	{"ql.parse_us", "us"}, {"ql.parse_calls", "count"},
	{"core.registry.prepare_us", "us"}, {"core.registry.hit_ratio", "ratio"}, {"core.registry.evictions", "count"},
	{"core.plan.build_us", "us"}, {"core.plan.build_p99_us", "us"}, {"core.plan.terms", "count"},
	{"core.run.new_us", "us"}, {"core.run.bounds_init_us", "us"}, {"core.run.compute_us", "us"},
	{"core.run.retrievals_per_query", "count"},
	{"sched.queue_us", "us"}, {"sched.slices_per_query", "count"}, {"sched.rejected", "count"},
	{"storage.batchget_us", "us"}, {"storage.keys_per_batchget", "count"}, {"storage.coalesced_ratio", "ratio"},
	{"layout.batchget_us", "us"}, {"layout.hot_keys", "count"}, {"layout.lru_hits", "count"},
	{"layout.block_loads", "count"}, {"layout.keys_per_block_load", "count"},
	{"mvcc.snapshot_us", "us"}, {"mvcc.read_us", "us"}, {"mvcc.apply_us", "us"}, {"mvcc.apply_p90_us", "us"},
	{"mvcc.keys_per_tuple", "count"}, {"mvcc.layers_at_pin", "count"}, {"mvcc.compactions", "count"},
	{"mvcc.compact_us", "us"},
	{"bench.generator_late_ms", "ms"}, {"trace.coverage", "ratio"},
	{"trace.request_p50_us", "us"}, {"trace.untraced_p50_us", "us"}, {"trace.first_estimate_p50_us", "us"},
}
