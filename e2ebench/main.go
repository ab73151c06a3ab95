// Command e2ebench is the repository's end-to-end benchmark. It generates a
// dataset, query pools and an ingest stream from one seed, starts real wvqd
// processes built from the tree under test, drives them over loopback TCP,
// checks every answer against an oracle, and prints the metrics as one JSON
// object on the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds both
// binaries first:
//
//	bash e2ebench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it also replays the same request sequence in-process,
// calling the layers' Go functions in the order the server calls them, and
// reports per-layer metrics instead of the end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: serve-mix, layout-stream, ingest-read or sharded")
		seed         = flag.Int64("seed", 1, "seed for every generated input")
		seconds      = flag.Float64("seconds", 10, "measured seconds per run")
		trace        = flag.Int("trace", 0, "1 = report per-layer metrics from a traced in-process replay")
		root         = flag.String("root", ".", "checkout root; all files are written under <root>/.bench_build")
		bin          = flag.String("bin", "", "path of the wvqd binary built from the tree under test")
	)
	flag.Parse()
	w, ok := workloads[*workloadName]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want one of %v)\n", *workloadName, workloadNames())
		os.Exit(2)
	}
	if *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -bin is required, -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	buildDir := filepath.Join(*root, ".bench_build")
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	cfg := runConfig{
		w:        w,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		work:     work,
		bin:      *bin,
		buildDir: buildDir,
	}
	res, report, err := run(ctx, cfg)
	procs.stopAll()
	_ = os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	report.print(os.Stdout)
	if err := report.save(filepath.Join(buildDir, "results")); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: saving result record:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
