package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// BatchGetter is implemented by stores that can serve many coefficient
// retrievals in one call. Batching preserves the paper's cost model — every
// requested key still counts as one retrieval — but lets implementations
// amortize per-call overhead: one lock round-trip instead of one per key
// (ConcurrentStore, ShardedStore), one coalesced positioned read instead of
// one syscall per key (FileStore), one cache pass instead of per-key
// bookkeeping (CachedStore).
type BatchGetter interface {
	// GetBatch stores the coefficient for keys[i] into dst[i], counting
	// len(keys) retrievals. dst must have the same length as keys. Keys may
	// repeat and appear in any order.
	GetBatch(keys []int, dst []float64)
}

// BatchGet retrieves every key through the store's BatchGetter fast path
// when it has one, falling back to one Get per key otherwise. dst must have
// the same length as keys.
func BatchGet(s Store, keys []int, dst []float64) {
	if len(keys) != len(dst) {
		panic("storage: BatchGet keys/dst length mismatch")
	}
	if bg, ok := s.(BatchGetter); ok {
		bg.GetBatch(keys, dst)
		return
	}
	for i, k := range keys {
		dst[i] = s.Get(k)
	}
}

// GetBatch implements BatchGetter with one counter update for the batch.
func (s *ArrayStore) GetBatch(keys []int, dst []float64) {
	s.retrievals.Add(int64(len(keys)))
	for i, k := range keys {
		if k < 0 || k >= len(s.cells) {
			panic(batchRangeError(k, len(s.cells)))
		}
		dst[i] = s.cells[k]
	}
}

// GetBatch implements BatchGetter.
func (s *HashStore) GetBatch(keys []int, dst []float64) {
	s.retrievals.Add(int64(len(keys)))
	for i, k := range keys {
		dst[i] = s.cells[k]
	}
}

// GetBatch implements BatchGetter: cache hits are served in place, the
// misses (deduplicated) go to the wrapped store in one batch and are
// inserted into the cache. Counting matches the per-key path: every key
// served from cache counts a hit, every distinct miss reaches the wrapped
// store. (With a bounded cache under eviction pressure the hit/miss split
// can differ marginally from issuing the same keys one Get at a time,
// because insertions happen after the whole batch is classified.)
func (s *CachedStore) GetBatch(keys []int, dst []float64) {
	if s.capacity == 0 {
		// Caching disabled: forward the whole batch.
		BatchGet(s.inner, keys, dst)
		return
	}
	var missKeys []int
	missAt := make(map[int]int) // key → index into missKeys
	for i, k := range keys {
		if el, ok := s.index[k]; ok {
			s.hits++
			s.lru.MoveToFront(el)
			dst[i] = el.Value.(cachedCell).val
			continue
		}
		if _, ok := missAt[k]; ok {
			// Duplicate miss within the batch: fetched once, the repeat is a
			// hit, mirroring the sequential fetch-then-hit behaviour. The
			// value is filled in by the final pass below.
			s.hits++
			continue
		}
		missAt[k] = len(missKeys)
		missKeys = append(missKeys, k)
	}
	if len(missKeys) == 0 {
		return
	}
	missVals := make([]float64, len(missKeys))
	BatchGet(s.inner, missKeys, missVals)
	for j, k := range missKeys {
		if s.lru.Len() >= s.capacity {
			oldest := s.lru.Back()
			delete(s.index, oldest.Value.(cachedCell).key)
			s.lru.Remove(oldest)
		}
		s.index[k] = s.lru.PushFront(cachedCell{key: k, val: missVals[j]})
	}
	for i, k := range keys {
		if j, ok := missAt[k]; ok {
			dst[i] = missVals[j]
		}
	}
}

// BatchGetCtx implements FallibleStore. Hit/miss classification is identical
// to GetBatch; the deduplicated misses go to the wrapped store's fallible
// batch path. Failed misses are not cached and are reported as a
// *BatchError whose indices refer to the caller's batch (every position
// requesting a failed key fails); a non-batch error from the wrapped store
// (cancellation, total outage) is returned as-is.
func (s *CachedStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	if len(keys) != len(dst) {
		panic("storage: BatchGetCtx keys/dst length mismatch")
	}
	if s.capacity == 0 {
		// Caching disabled: forward the whole batch.
		return s.finner.BatchGetCtx(ctx, keys, dst)
	}
	var missKeys []int
	missAt := make(map[int]int) // key → index into missKeys
	for i, k := range keys {
		if el, ok := s.index[k]; ok {
			s.hits++
			s.lru.MoveToFront(el)
			dst[i] = el.Value.(cachedCell).val
			continue
		}
		if _, ok := missAt[k]; ok {
			// Duplicate miss within the batch: fetched once, the repeat is a
			// hit (see GetBatch) — unless the shared fetch fails, in which
			// case every position of the key fails below.
			s.hits++
			continue
		}
		missAt[k] = len(missKeys)
		missKeys = append(missKeys, k)
	}
	if len(missKeys) == 0 {
		return nil
	}
	missVals := make([]float64, len(missKeys))
	err := s.finner.BatchGetCtx(ctx, missKeys, missVals)
	var failed map[int]error // missKeys index → cause
	if err != nil {
		var be *BatchError
		if !errors.As(err, &be) {
			return err
		}
		failed = make(map[int]error, len(be.Failed))
		for _, ke := range be.Failed {
			failed[ke.Index] = ke.Err
		}
	}
	for j, k := range missKeys {
		if _, bad := failed[j]; !bad {
			s.insert(k, missVals[j])
		}
	}
	var out []KeyError
	for i, k := range keys {
		j, ok := missAt[k]
		if !ok {
			continue
		}
		if cause, bad := failed[j]; bad {
			out = append(out, KeyError{Index: i, Key: k, Err: cause})
			continue
		}
		dst[i] = missVals[j]
	}
	if len(out) > 0 {
		return &BatchError{Failed: out}
	}
	return nil
}

// Coalescing policy for FileStore batch reads. A run keeps absorbing the
// next (sorted) key while all three caps hold; each cap bounds a different
// resource the old gap-only rule left unbounded:
const (
	// fileStoreMaxGap is the largest key gap (in cells) a coalesced read
	// will read through: reading 8·gap wasted bytes is cheaper than a
	// second syscall.
	fileStoreMaxGap = 64
	// fileStoreMaxWasteCells caps the CUMULATIVE gap cells read through in
	// one coalesced read (8 KiB of wasted bytes). Without it, a batch of
	// stride-64 keys chains through the gap cap forever: every gap is
	// individually acceptable, but the single read it builds is ~98% waste.
	fileStoreMaxWasteCells = 1024
	// fileStoreMaxSpanCells caps one read's total span (1 MiB): however
	// dense the keys, an oversized span is split so the read buffer stays
	// bounded and an I/O failure fails a bounded set of positions.
	fileStoreMaxSpanCells = 128 << 10
)

// coalesce returns hi such that order[lo:hi] is the longest prefix run
// satisfying the gap, waste and span caps. keys[order] is sorted ascending.
func coalesce(keys []int, order []int, lo int) int {
	hi := lo + 1
	waste := 0
	for hi < len(order) {
		gap := keys[order[hi]] - keys[order[hi-1]] - 1 // cells read but not wanted
		if gap < 0 {
			gap = 0 // duplicate key
		}
		if gap+1 > fileStoreMaxGap ||
			waste+gap > fileStoreMaxWasteCells ||
			keys[order[hi]]-keys[order[lo]]+1 > fileStoreMaxSpanCells {
			break
		}
		waste += gap
		hi++
	}
	return hi
}

// GetBatch implements BatchGetter by sorting the requested keys and
// coalescing consecutive (or near-consecutive) runs into single positioned
// reads, cutting the syscall count from len(keys) to the number of runs.
// Reads are bounded: per-read waste and span caps (see coalesce) keep the
// bytes physically read within a constant factor of the bytes requested.
func (s *FileStore) GetBatch(keys []int, dst []float64) {
	s.retrievals += int64(len(keys))
	order := make([]int, len(keys))
	for i := range order {
		if k := keys[i]; k < 0 || k >= s.n {
			panic(batchRangeError(k, s.n))
		}
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	var buf []byte
	for lo := 0; lo < len(order); {
		hi := coalesce(keys, order, lo)
		first, last := keys[order[lo]], keys[order[hi-1]]
		span := last - first + 1
		if cap(buf) < span*8 {
			buf = make([]byte, span*8)
		}
		b := buf[:span*8]
		n, err := s.f.ReadAt(b, s.offset(first))
		s.reads++
		s.bytesRead += int64(n)
		if err != nil {
			panic(batchReadError(first, last, err))
		}
		for _, i := range order[lo:hi] {
			dst[i] = cellAt(b, keys[i]-first)
		}
		lo = hi
	}
}

// BatchGetCtx implements FallibleStore with the same run-coalescing as
// GetBatch. An out-of-range key or a failed positioned read fails only the
// positions it covers, reported via *BatchError, while the remaining runs
// are still read. A SHORT read (ReadAt returned fewer bytes than the span,
// e.g. the file was truncated under us) is partial, not total: positions
// whose cells were fully read before the cut are served, only the
// uncovered tail of the run fails — honoring the BatchError contract that
// unlisted positions hold valid values. Cancellation is observed between
// runs and returned whole.
func (s *FileStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	if len(keys) != len(dst) {
		panic("storage: BatchGetCtx keys/dst length mismatch")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.retrievals += int64(len(keys))
	var failed []KeyError
	order := make([]int, 0, len(keys))
	for i, k := range keys {
		if k < 0 || k >= s.n {
			failed = append(failed, KeyError{Index: i, Key: k,
				Err: fmt.Errorf("key out of range [0,%d)", s.n)})
			continue
		}
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	var buf []byte
	for lo := 0; lo < len(order); {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := coalesce(keys, order, lo)
		first, last := keys[order[lo]], keys[order[hi-1]]
		span := last - first + 1
		if cap(buf) < span*8 {
			buf = make([]byte, span*8)
		}
		b := buf[:span*8]
		n, err := s.f.ReadAt(b, s.offset(first))
		s.reads++
		s.bytesRead += int64(n)
		if err != nil {
			covered := n / 8 // complete cells before the cut
			for _, i := range order[lo:hi] {
				if off := keys[i] - first; off < covered {
					dst[i] = cellAt(b, off)
				} else {
					failed = append(failed, KeyError{Index: i, Key: keys[i], Err: err})
				}
			}
			lo = hi
			continue
		}
		for _, i := range order[lo:hi] {
			dst[i] = cellAt(b, keys[i]-first)
		}
		lo = hi
	}
	if len(failed) > 0 {
		sort.Slice(failed, func(a, b int) bool { return failed[a].Index < failed[b].Index })
		return &BatchError{Failed: failed}
	}
	return nil
}

// GetBatch implements BatchGetter: the wrapped store is consulted under a
// single lock acquisition instead of one per key.
func (s *ConcurrentStore) GetBatch(keys []int, dst []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	BatchGet(s.inner, keys, dst)
}

func batchRangeError(key, n int) string {
	return fmt.Sprintf("storage: key %d out of range [0,%d)", key, n)
}

func batchReadError(first, last int, err error) string {
	return fmt.Sprintf("storage: reading coefficients [%d,%d]: %v", first, last, err)
}

// cellAt decodes the little-endian float64 at cell index i of a coalesced
// read buffer.
func cellAt(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[i*8 : i*8+8]))
}

var (
	_ BatchGetter = (*ArrayStore)(nil)
	_ BatchGetter = (*HashStore)(nil)
	_ BatchGetter = (*CachedStore)(nil)
	_ BatchGetter = (*FileStore)(nil)
	_ BatchGetter = (*ConcurrentStore)(nil)
)
