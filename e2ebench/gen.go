package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/query"
)

// The shared dataset: 3 dimensions, 200k tuples drawn from 256 Gaussian
// clusters, enough that request costs vary little from seed to seed. Under Db4 this gives ~0.9M nonzero coefficients.
var (
	attrNames = []string{"age", "salary", "day"}
	attrSizes = []int{64, 256, 64}
)

const (
	datasetTuples   = 200_000
	datasetClusters = 256
	datasetSigma    = 0.08

	// Program cache sizes the pools are sized against.
	registryCapacity = 256 // core.DefaultRegistryCapacity
	sliceRetrievals  = 512 // sched default Slice
	// layoutSlice shrinks the scheduler slice on the layout workload so a
	// drain of a few hundred block-scattered keys spans several scheduler
	// turns (and SSE snapshots) while a request stays short enough for
	// >1000 samples per run. A normal-priority turn grants 2 slices.
	layoutSlice = 64

	tenant = "bench"
)

// workload describes one traffic mix.
type workload struct {
	name string
	// mode selects the server deployment: "mem" (-db), "layout" (-layout),
	// "mvcc" (-db -mvcc) or "sharded" (-shards over two -shard-listen).
	mode string
	// prepared is the pool registered through /prepare at set-up; adhoc is
	// the pool of inline batches drawn Zipf-skewed (0 = none).
	prepared, adhoc int
	zipfS           float64
	// budget is the retrieval budget per request (0 = exact).
	budget int
	// stream sends requests to /query/stream and reads the SSE events.
	stream bool
	// clients is the number of closed-loop query connections.
	clients int
	// ingestRate is the open-loop /ingest rate in batches per second, each
	// of ingestTuples tuples (0 = no writer).
	ingestRate   float64
	ingestTuples int
	// minDistinct and maxDistinct regenerate a batch until its plan's
	// distinct coefficient count lies between them (0 = no limit).
	minDistinct, maxDistinct int
	// large draws each batch's statement from the large family, not the
	// small one.
	large bool
	// slice overrides the scheduler's retrievals per turn (0 = default).
	slice int
}

var workloads = map[string]workload{
	"serve-mix": {
		name: "serve-mix", mode: "mem",
		prepared: 32, adhoc: 4 * registryCapacity, zipfS: 1.1,
		budget: 2 * sliceRetrievals, clients: 2, large: true,
	},
	"layout-stream": {
		name: "layout-stream", mode: "layout",
		prepared: 64, stream: true, clients: 2,
		slice: layoutSlice, minDistinct: 3 * 2 * layoutSlice, maxDistinct: 4 * 2 * layoutSlice,
	},
	"ingest-read": {
		name: "ingest-read", mode: "mvcc",
		prepared: 64, clients: 1, large: true,
		ingestRate: 4, ingestTuples: 16,
	},
	"sharded": {
		name: "sharded", mode: "sharded",
		prepared: 32, clients: 2,
		minDistinct: 512, maxDistinct: 768,
	},
}

// genBatch is one generated query batch with everything the client and the
// oracle need.
type genBatch struct {
	stmt  string
	batch repro.Batch
	// canon is the canonical-order batch a prepared handle answers; perm[i]
	// is the canonical slot of statement-order query i.
	canon  repro.Batch
	perm   []int32
	handle string
	// body is the marshalled request body (handle for prepared batches,
	// statements for ad-hoc ones).
	body []byte
	// exact holds the oracle answers in the order responses carry them
	// (canonical for prepared, statement order for ad-hoc); nil until
	// computed.
	exact []float64
}

// inputs is everything one seed generates.
type inputs struct {
	schema   *repro.Schema
	dist     *repro.Distribution
	db       *repro.Database
	mass     float64
	prepared []*genBatch
	adhoc    []*genBatch
	ingest   [][][]int // ingest batches of tuple coordinates
	dbPath   string
	wvlsPath string
	centers  [][]float64
}

// generate builds the dataset, pools and ingest stream for a seed and writes
// the server's input files under dir.
func generate(w workload, seed int64, dir string) (*inputs, error) {
	schema, err := repro.NewSchema(attrNames, attrSizes)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{schema: schema}
	in.centers = make([][]float64, datasetClusters)
	for c := range in.centers {
		in.centers[c] = make([]float64, len(attrSizes))
		for j, n := range attrSizes {
			in.centers[c][j] = rng.Float64() * float64(n)
		}
	}
	in.dist = repro.NewDistribution(schema)
	for i := 0; i < datasetTuples; i++ {
		in.dist.AddTuple(in.sampleTuple(rng))
	}
	in.db, err = repro.NewDatabase(in.dist, repro.Db4)
	if err != nil {
		return nil, err
	}
	if in.mass, err = in.db.CoefficientMass(); err != nil {
		return nil, err
	}
	in.dbPath = filepath.Join(dir, "data.wvdb")
	f, err := os.Create(in.dbPath)
	if err != nil {
		return nil, err
	}
	if err := in.db.Save(f); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("writing database: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if w.mode == "layout" {
		in.wvlsPath = filepath.Join(dir, "data.wvls")
		if err := in.db.SaveLayout(in.wvlsPath, repro.LayoutOptions{}); err != nil {
			return nil, fmt.Errorf("writing layout: %w", err)
		}
	}
	for i := 0; i < w.prepared; i++ {
		b, err := in.newBatch(w, rng, true, i)
		if err != nil {
			return nil, err
		}
		in.prepared = append(in.prepared, b)
	}
	for i := 0; i < w.adhoc; i++ {
		b, err := in.newBatch(w, rng, false, i)
		if err != nil {
			return nil, err
		}
		in.adhoc = append(in.adhoc, b)
	}
	if w.ingestRate > 0 {
		// Enough batches for a long run; the writer stops at the deadline.
		n := int(w.ingestRate*120) + 1
		in.ingest = make([][][]int, n)
		for i := range in.ingest {
			for j := 0; j < w.ingestTuples; j++ {
				in.ingest[i] = append(in.ingest[i], in.sampleTuple(rng))
			}
		}
	}
	return in, nil
}

// sampleTuple draws one tuple's bin coordinates from the cluster mixture.
func (in *inputs) sampleTuple(rng *rand.Rand) []int {
	c := in.centers[rng.Intn(len(in.centers))]
	coords := make([]int, len(attrSizes))
	for j, n := range attrSizes {
		x := int(c[j] + rng.NormFloat64()*datasetSigma*float64(n))
		coords[j] = min(max(x, 0), n-1)
	}
	return coords
}

// randRange draws an inclusive bin range of width in [lo,hi] within [0,n).
func randRange(rng *rand.Rand, n, lo, hi int) (int, int) {
	width := lo + rng.Intn(hi-lo+1)
	start := rng.Intn(n - width + 1)
	return start, start + width - 1
}

// Statement families. Large statements constrain two dimensions and group
// along a third over the 256-bin salary axis (~7–9k distinct coefficients,
// so a fixed budget leaves the answer progressive); small ones group over
// the 64-bin axes (~0.4–0.9k distinct coefficients, cheap exact drains).
// The grouped range is aligned to its buckets with a fixed width, so each
// family always expands to the same number of queries; the other range is
// free, which keeps the pools' statements distinct.
func largeStatement(rng *rand.Rand, family int) string {
	a0, a1 := randRange(rng, 64, 8, 32)
	d0, d1 := randRange(rng, 64, 8, 32)
	switch family % 3 {
	case 0:
		g := 8 * rng.Intn(6)
		return fmt.Sprintf("SUM(salary) WHERE age BETWEEN %d AND %d AND day BETWEEN %d AND %d GROUP BY age(8)", g, g+23, d0, d1)
	case 1:
		return fmt.Sprintf("SUM(salary) WHERE age BETWEEN %d AND %d GROUP BY day(16)", a0, a1)
	default:
		g := 64 * rng.Intn(3)
		return fmt.Sprintf("SUM(age) WHERE salary BETWEEN %d AND %d AND day BETWEEN %d AND %d GROUP BY salary(64)", g, g+127, d0, d1)
	}
}

func smallStatement(rng *rand.Rand, family int) string {
	a0, a1 := randRange(rng, 64, 8, 32)
	d0, d1 := randRange(rng, 64, 8, 32)
	g := 16 * rng.Intn(3)
	switch family % 3 {
	case 0:
		return fmt.Sprintf("COUNT() WHERE age BETWEEN %d AND %d AND day BETWEEN %d AND %d GROUP BY day(16)", a0, a1, g, g+31)
	case 1:
		return fmt.Sprintf("COUNT() WHERE day BETWEEN %d AND %d GROUP BY age(8)", d0, d1)
	default:
		return fmt.Sprintf("SUM(age) WHERE age BETWEEN %d AND %d AND day BETWEEN %d AND %d GROUP BY age(16)", g, g+31, d0, d1)
	}
}

// newBatch draws a one-statement batch. Without a distinct window the
// families rotate with the pool index, so every pool holds them in equal
// shares; with one, the family is drawn until the plan fits.
func (in *inputs) newBatch(w workload, rng *rand.Rand, prepared bool, index int) (*genBatch, error) {
	windowed := w.minDistinct > 0 || w.maxDistinct > 0
	for attempt := 0; ; attempt++ {
		if attempt == 10000 {
			return nil, fmt.Errorf("no batch within %d..%d distinct coefficients", w.minDistinct, w.maxDistinct)
		}
		gen := smallStatement
		if w.large {
			gen = largeStatement
		}
		family := index
		if windowed {
			family = rng.Intn(3)
		}
		stmt := gen(rng, family)
		batch, err := repro.ParseBatch(in.schema, stmt)
		if err != nil {
			return nil, fmt.Errorf("generated statement %q: %w", stmt, err)
		}
		if windowed {
			plan, err := in.db.Plan(batch)
			if err != nil {
				return nil, err
			}
			n := plan.DistinctCoefficients()
			if n < w.minDistinct || (w.maxDistinct > 0 && n > w.maxDistinct) {
				continue
			}
		}
		b := &genBatch{stmt: stmt, batch: batch}
		canon, perm := batch.Canonical()
		b.canon, b.perm = canon, perm
		b.handle = query.CanonicalFingerprint(canon)
		req := map[string]any{"budget": w.budget}
		if prepared {
			req["handle"] = b.handle
		} else {
			req["statements"] = stmt
		}
		if b.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		return b, nil
	}
}

// request is one entry of a client's request sequence.
type request struct {
	b        *genBatch
	prepared bool
}

// sequence is the deterministic request stream of one client. Prepared
// handles are executed round-robin from a seeded offset, so each pool batch
// weighs equally and no handle idles long enough for ad-hoc traffic to
// evict it from the plan registry; in mixed workloads they alternate with
// Zipf-drawn ad-hoc batches.
type sequence struct {
	in   *inputs
	zipf *rand.Zipf
	n    int
	next int // next prepared index
}

func newSequence(in *inputs, w workload, seed int64, client int) *sequence {
	rng := rand.New(rand.NewSource(seed*1000 + int64(client) + 7))
	s := &sequence{in: in, next: rng.Intn(len(in.prepared))}
	if len(in.adhoc) > 0 {
		s.zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(len(in.adhoc)-1))
	}
	return s
}

func (s *sequence) draw() request {
	s.n++
	if s.zipf != nil && s.n%2 == 0 {
		return request{b: s.in.adhoc[s.zipf.Uint64()]}
	}
	b := s.in.prepared[s.next]
	s.next = (s.next + 1) % len(s.in.prepared)
	return request{b: b, prepared: true}
}
