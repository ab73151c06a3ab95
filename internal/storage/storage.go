// Package storage holds the materialized view of the transformed data
// frequency distribution Δ̂ and implements the paper's I/O cost model:
// coefficients live in array- or hash-based storage with constant-time
// random access, and the unit of cost is one retrieval per requested
// coefficient (Section 1.3 of the paper). Every store counts retrievals so
// that the experiments can report exactly the quantities the paper reports.
//
// Stores are not safe for concurrent use, matching the paper's sequential
// retrieval model, except where documented: ArrayStore and HashStore count
// retrievals atomically, so their reads may run concurrently without writes.
package storage

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Store provides random access to transform coefficients by flat key.
type Store interface {
	// Get returns the coefficient at key, counting one retrieval. Missing
	// coefficients are zero (and still cost a retrieval: the engine had to
	// probe storage to learn that).
	Get(key int) float64
	// Retrievals returns the number of Get calls since the last ResetStats.
	Retrievals() int64
	// ResetStats zeroes the retrieval counter.
	ResetStats()
	// NonzeroCount returns the number of nonzero coefficients held.
	NonzeroCount() int
}

// Updatable is a Store that supports incremental maintenance: adding delta
// to a single coefficient, which is how tuple inserts propagate into Δ̂.
type Updatable interface {
	Store
	// Add adds delta to the coefficient at key without counting a retrieval.
	Add(key int, delta float64)
}

// Enumerable is implemented by stores that can iterate their nonzero
// coefficients (for persistence and diagnostics). Iteration order is
// unspecified; fn returning false stops the walk. Enumeration does not
// count retrievals.
//
// Wrapper stores (ConcurrentStore, CachedStore, BlockStore,
// CoalescingStore) satisfy this interface unconditionally but can only
// enumerate when the store they wrap can; they additionally expose an
// `Enumerable() bool` capability check and their ForEachNonzero panics when
// it reports false. Use IsEnumerable to test a store of unknown shape.
type Enumerable interface {
	ForEachNonzero(fn func(key int, value float64) bool)
}

// enumerationCapable is the capability check implemented by wrapper stores
// whose enumerability depends on the store they wrap.
type enumerationCapable interface {
	Enumerable() bool
}

// IsEnumerable reports whether s actually supports ForEachNonzero: it
// implements Enumerable and, for capability-aware wrappers, the wrapped
// store does too. Callers should check this before enumerating a store of
// unknown provenance; wrappers panic on unsupported enumeration rather than
// silently visiting nothing.
func IsEnumerable(s Store) bool {
	if c, ok := s.(enumerationCapable); ok {
		return c.Enumerable()
	}
	_, ok := s.(Enumerable)
	return ok
}

// ArrayStore keeps the full dense coefficient array. Access is a bounds
// check and an index — the paper's "array-based storage".
type ArrayStore struct {
	cells      []float64
	retrievals atomic.Int64
}

// NewArrayStore wraps the given dense coefficient array. The caller retains
// no ownership obligations; the store aliases the slice.
func NewArrayStore(cells []float64) *ArrayStore {
	return &ArrayStore{cells: cells}
}

// Get implements Store.
func (s *ArrayStore) Get(key int) float64 {
	s.retrievals.Add(1)
	if key < 0 || key >= len(s.cells) {
		panic(fmt.Sprintf("storage: key %d out of range [0,%d)", key, len(s.cells)))
	}
	return s.cells[key]
}

// Add implements Updatable.
func (s *ArrayStore) Add(key int, delta float64) {
	if key < 0 || key >= len(s.cells) {
		panic(fmt.Sprintf("storage: key %d out of range [0,%d)", key, len(s.cells)))
	}
	s.cells[key] += delta
}

// Retrievals implements Store.
func (s *ArrayStore) Retrievals() int64 { return s.retrievals.Load() }

// ResetStats implements Store.
func (s *ArrayStore) ResetStats() { s.retrievals.Store(0) }

// NonzeroCount implements Store.
func (s *ArrayStore) NonzeroCount() int {
	n := 0
	for _, v := range s.cells {
		if v != 0 {
			n++
		}
	}
	return n
}

// Size returns the total number of cells (zero or not).
func (s *ArrayStore) Size() int { return len(s.cells) }

// ForEachNonzero implements Enumerable (ascending key order).
func (s *ArrayStore) ForEachNonzero(fn func(key int, value float64) bool) {
	for k, v := range s.cells {
		if v != 0 {
			if !fn(k, v) {
				return
			}
		}
	}
}

// HashStore keeps only nonzero coefficients in a hash table — the paper's
// "hash-based storage", appropriate when the transform is sparse relative to
// the domain.
type HashStore struct {
	cells      map[int]float64
	retrievals atomic.Int64
}

// NewHashStore returns an empty hash store.
func NewHashStore() *HashStore {
	return &HashStore{cells: make(map[int]float64)}
}

// NewHashStoreFromDense builds a hash store from a dense coefficient array,
// keeping entries with |value| > tol.
func NewHashStoreFromDense(cells []float64, tol float64) *HashStore {
	s := NewHashStore()
	for k, v := range cells {
		if math.Abs(v) > tol {
			s.cells[k] = v
		}
	}
	return s
}

// Get implements Store.
func (s *HashStore) Get(key int) float64 {
	s.retrievals.Add(1)
	return s.cells[key]
}

// Add implements Updatable.
func (s *HashStore) Add(key int, delta float64) {
	if v := s.cells[key] + delta; v == 0 {
		delete(s.cells, key)
	} else {
		s.cells[key] = v
	}
}

// Retrievals implements Store.
func (s *HashStore) Retrievals() int64 { return s.retrievals.Load() }

// ResetStats implements Store.
func (s *HashStore) ResetStats() { s.retrievals.Store(0) }

// NonzeroCount implements Store.
func (s *HashStore) NonzeroCount() int { return len(s.cells) }

// ForEachNonzero implements Enumerable (map order).
func (s *HashStore) ForEachNonzero(fn func(key int, value float64) bool) {
	for k, v := range s.cells {
		if !fn(k, v) {
			return
		}
	}
}

// BlockStore simulates a disk layout in which consecutive flat keys are
// grouped into fixed-size blocks and the unit of I/O is one block. A block
// fetched once stays in the (unbounded) buffer until ResetStats, so
// retrieving several coefficients from one block costs a single block read —
// the setting of the paper's "importance functions for disk blocks" future
// work, implemented here as an extension.
type BlockStore struct {
	inner      Store
	blockSize  int
	fetched    map[int]struct{}
	blockReads int64
}

// NewBlockStore wraps inner with a simulated block layer of the given block
// size (number of coefficients per block).
func NewBlockStore(inner Store, blockSize int) *BlockStore {
	if blockSize <= 0 {
		panic("storage: block size must be positive")
	}
	return &BlockStore{inner: inner, blockSize: blockSize, fetched: make(map[int]struct{})}
}

// Get implements Store. The retrieval counter of the underlying store still
// counts coefficients; BlockReads counts blocks.
func (s *BlockStore) Get(key int) float64 {
	b := key / s.blockSize
	if _, ok := s.fetched[b]; !ok {
		s.fetched[b] = struct{}{}
		s.blockReads++
	}
	return s.inner.Get(key)
}

// Block returns the block number for key.
func (s *BlockStore) Block(key int) int { return key / s.blockSize }

// BlockSize returns the number of coefficients per block.
func (s *BlockStore) BlockSize() int { return s.blockSize }

// BlockReads returns the number of distinct blocks fetched since ResetStats.
func (s *BlockStore) BlockReads() int64 { return s.blockReads }

// Retrievals implements Store, delegating to the wrapped store.
func (s *BlockStore) Retrievals() int64 { return s.inner.Retrievals() }

// ResetStats implements Store: clears the buffer and both counters.
func (s *BlockStore) ResetStats() {
	s.inner.ResetStats()
	s.blockReads = 0
	s.fetched = make(map[int]struct{})
}

// NonzeroCount implements Store.
func (s *BlockStore) NonzeroCount() int { return s.inner.NonzeroCount() }

// Enumerable reports whether the wrapped store supports enumeration.
func (s *BlockStore) Enumerable() bool { return IsEnumerable(s.inner) }

// ForEachNonzero implements Enumerable when the wrapped store does; it
// panics otherwise (check Enumerable first).
func (s *BlockStore) ForEachNonzero(fn func(key int, value float64) bool) {
	e, ok := s.inner.(Enumerable)
	if !ok {
		panic("storage: wrapped store is not enumerable")
	}
	e.ForEachNonzero(fn)
}

var (
	_ Updatable  = (*ArrayStore)(nil)
	_ Updatable  = (*HashStore)(nil)
	_ Store      = (*BlockStore)(nil)
	_ Enumerable = (*ArrayStore)(nil)
	_ Enumerable = (*HashStore)(nil)
	_ Enumerable = (*BlockStore)(nil)
)
