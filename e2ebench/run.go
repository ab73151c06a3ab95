package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// setupRounds is how many times a run deploys the servers; setup_s is
	// the median, and the last deployment serves the measurement.
	setupRounds = 3
	// warmup runs the clients before the measured window so that the plan
	// registry, schedule caches and the layout LRU are filled.
	warmup = 1500 * time.Millisecond
	// minSamples is the fewest answered requests the measured window of an
	// untraced run may hold, so that at least 10 lie beyond query_p99_ms.
	// A traced run reports no p99.
	minSamples = 1000
)

type runConfig struct {
	w        workload
	seed     int64
	measure  time.Duration
	traced   bool
	work     string
	bin      string
	buildDir string
}

// measurement is what the clients observed in the measured window.
type measurement struct {
	samples  []sample // every query request, warm-up included
	measured []sample // those started inside the window
	ingests  []ingestSample
	start    time.Time // start of the measured window
	window   time.Duration
}

func run(ctx context.Context, cfg runConfig) (result, *report, error) {
	if err := checkerSelfTest(); err != nil {
		return result{}, nil, fmt.Errorf("answer checker self-test: %w", err)
	}
	rep := newReport(cfg)
	in, err := generate(cfg.w, cfg.seed, cfg.work)
	if err != nil {
		return result{}, nil, fmt.Errorf("generating inputs: %w", err)
	}
	rep.Inputs["nonzero_coefficients"] = in.db.NonzeroCoefficients()
	rep.Inputs["prepared_pool"] = len(in.prepared)
	rep.Inputs["adhoc_pool"] = len(in.adhoc)

	var setups []float64
	var d *deployment
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		d, err = deploy(ctx, cfg, in, round)
		if err != nil {
			return result{}, nil, err
		}
		c := newConn(d.base)
		for _, b := range in.prepared {
			if err := c.prepare(ctx, b); err != nil {
				c.close()
				d.stop()
				return result{}, nil, err
			}
		}
		c.close()
		setups = append(setups, time.Since(t0).Seconds())
		if round < setupRounds-1 {
			d.stop()
		}
	}
	// A traced run spends half its window on the deployment (for the
	// untraced end-to-end median) and half on the in-process replays, so
	// both kinds of run take the same time.
	window := cfg.measure
	if cfg.traced {
		window /= 2
	}
	m := measure(ctx, cfg, in, d, window)
	rss, rssErr := d.rssMB()
	for _, p := range d.procs {
		if p.exited() {
			rssErr = fmt.Errorf("%s exited during the run", p.name)
		}
	}
	d.stop()
	if rssErr != nil {
		return result{}, nil, rssErr
	}
	if err := ctx.Err(); err != nil {
		return result{}, nil, err
	}

	o := &oracle{in: in}
	cr := o.checkAll(cfg.w, m.samples, m.ingests)
	attempted := len(m.samples) + len(m.ingests)
	e2e := endToEnd(cfg.w, m, setups, rss, cr, attempted)
	if n := int(e2e["samples"].Value); n < minSamples && !cfg.traced {
		return result{}, nil, fmt.Errorf("%d answered requests in the measured window; query_p99_ms needs at least %d (10 beyond the p99)", n, minSamples)
	}
	rep.E2E, rep.Failures = e2e, cr.reasons
	res := result{
		Correct:   cr.failed == 0,
		Attempted: attempted,
		Failed:    cr.failed,
	}
	if !cfg.traced {
		res.Metrics = gated(e2e)
		return res, rep, nil
	}
	layers, err := traceRun(ctx, cfg, in, e2e)
	if err != nil {
		return result{}, nil, fmt.Errorf("traced run: %w", err)
	}
	rep.Layers = layers
	res.Metrics = layers
	return res, rep, nil
}

// measure runs the closed-loop clients (and the open-loop writer) for the
// warm-up plus the measured window.
func measure(ctx context.Context, cfg runConfig, in *inputs, d *deployment, window time.Duration) measurement {
	start := time.Now()
	measureStart := start.Add(warmup)
	end := measureStart.Add(window)
	var mu sync.Mutex
	var m measurement
	var wg sync.WaitGroup
	for c := 0; c < cfg.w.clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			cn := newConn(d.base)
			defer cn.close()
			seq := newSequence(in, cfg.w, cfg.seed, client)
			var local []sample
			for i := 0; time.Now().Before(end) && ctx.Err() == nil; i++ {
				s := cn.query(ctx, seq.draw(), cfg.w.stream)
				s.client, s.seq = client, i
				local = append(local, s)
			}
			mu.Lock()
			m.samples = append(m.samples, local...)
			mu.Unlock()
		}(c)
	}
	if cfg.w.ingestRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := newConn(d.base)
			defer cn.close()
			interval := time.Duration(float64(time.Second) / cfg.w.ingestRate)
			for i := 0; i < len(in.ingest) && ctx.Err() == nil; i++ {
				due := start.Add(time.Duration(i) * interval)
				if !due.Before(end) {
					break
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				s := cn.ingest(ctx, i, in.ingest[i], due)
				mu.Lock()
				m.ingests = append(m.ingests, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, s := range m.samples {
		if !s.start.Before(measureStart) {
			m.measured = append(m.measured, s)
		}
	}
	m.start, m.window = measureStart, window
	return m
}

// endToEnd computes every end-to-end metric the workload defines.
func endToEnd(w workload, m measurement, setups []float64, rss float64, cr checkResult, attempted int) map[string]metric {
	out := map[string]metric{}
	var lat, first []float64
	for _, s := range m.measured {
		if s.err == "" {
			lat = append(lat, ms(s.lat))
			if w.stream {
				first = append(first, ms(s.first))
			}
		}
	}
	out["setup_s"] = metric{median(setups), "s"}
	p50, qps := subWindowMedians(m)
	out["query_p50_ms"] = metric{p50, "ms"}
	out["query_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	out["query_qps"] = metric{qps, "queries/s"}
	out["server_rss_mb"] = metric{rss, "MB"}
	out["error_rate"] = metric{float64(cr.failed) / float64(max(attempted, 1)), "fraction"}
	out["samples"] = metric{float64(len(lat)), "count"}
	if w.stream {
		out["first_estimate_p50_ms"] = metric{quantile(first, 0.50), "ms"}
	}
	if w.budget > 0 {
		out["mean_rel_err"] = metric{cr.meanRelErr, "ratio"}
	}
	if w.ingestRate > 0 {
		var il []float64
		var tuples int
		var mStart, mEnd time.Time
		for _, s := range m.ingests {
			if s.err != "" || s.due.Before(m.start) {
				continue
			}
			il = append(il, ms(s.lat))
			tuples += w.ingestTuples
			if mStart.IsZero() {
				mStart = s.due
			}
			mEnd = s.due.Add(s.lat)
		}
		out["ingest_p50_ms"] = metric{quantile(il, 0.50), "ms"}
		out["ingest_p90_ms"] = metric{quantile(il, 0.90), "ms"}
		out["ingest_tuples_per_s"] = metric{float64(tuples) / mEnd.Sub(mStart).Seconds(), "tuples/s"}
		var late []float64
		for _, s := range m.ingests {
			late = append(late, ms(s.late))
		}
		out["generator_late_ms"] = metric{mean(late), "ms"}
	}
	return out
}

// subWindows splits the measured window for query_p50_ms and query_qps:
// each is the median of its value over the sub-windows, so a short
// disturbance on the host moves one sub-window, not the result. p99 needs
// every sample of the window.
const subWindows = 5

func subWindowMedians(m measurement) (p50, qps float64) {
	sub := m.window / subWindows
	lat := make([][]float64, subWindows)
	done := make([]float64, subWindows)
	for _, s := range m.measured {
		if s.err != "" {
			continue
		}
		if k := int(s.start.Sub(m.start) / sub); k < subWindows {
			lat[k] = append(lat[k], ms(s.lat))
		}
		if k := int(s.start.Add(s.lat).Sub(m.start) / sub); k < subWindows {
			done[k]++
		}
	}
	p50s := make([]float64, subWindows)
	rates := make([]float64, subWindows)
	for k := range lat {
		p50s[k] = quantile(lat[k], 0.5)
		rates[k] = done[k] / sub.Seconds()
	}
	return median(p50s), median(rates)
}

// gatedMetrics are the end-to-end metrics every workload reports and
// BENCHMARK.json bounds; the others are printed but not gated because they
// exist on one workload only or are zero by design.
var gatedMetrics = []string{"setup_s", "query_p50_ms", "query_p99_ms", "query_qps", "server_rss_mb"}

func gated(all map[string]metric) map[string]metric {
	out := map[string]metric{}
	for _, k := range gatedMetrics {
		out[k] = all[k]
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile by nearest rank (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// report is the human-readable output and the saved result record.
type report struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Traced   bool              `json:"traced"`
	Host     map[string]any    `json:"host"`
	Inputs   map[string]any    `json:"inputs"`
	E2E      map[string]metric `json:"end_to_end"`
	Layers   map[string]metric `json:"per_layer,omitempty"`
	Failures map[string]int    `json:"failures,omitempty"`
}

func newReport(cfg runConfig) *report {
	return &report{
		Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.measure.Seconds(), Traced: cfg.traced,
		Host:   hostInfo(),
		Inputs: map[string]any{},
	}
}

func (r *report) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s  seed %d  seconds %g  traced %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(out, "host: %v\n", r.Host)
	fmt.Fprintf(out, "inputs: %v\n", r.Inputs)
	printTable(out, "end-to-end", r.E2E)
	if r.Layers != nil {
		printTable(out, "per-layer (traced in-process replay)", r.Layers)
	}
	for reason, n := range r.Failures {
		fmt.Fprintf(out, "FAILED x%d: %s\n", n, reason)
	}
}

func printTable(out io.Writer, title string, ms map[string]metric) {
	fmt.Fprintf(out, "%s:\n", title)
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// save writes the result record, with the host description, under dir.
func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", r.Workload, r.Seed, r.Traced, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// hostInfo describes the machine and the tree under test.
func hostInfo() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     os.Getenv("E2EBENCH_COMMIT"),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}
