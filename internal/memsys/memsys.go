// Package memsys is a size-classed slab pool for the predict hot
// path, in the spirit of aistore's memsys scatter-gather allocator:
// float64, byte and int slabs are handed out in power-of-two size classes
// and recycled through per-class free lists, so the ~3.3k transient
// allocations a single Predict used to make (Gram matrices, Cholesky
// factors, DTW cost rows, kNN buffers, WAL frames) become slab
// round-trips the garbage collector never sees.
//
// Design constraints, in order:
//
//  1. Bit-identical outputs. Get returns zeroed slabs, so pooled code
//     paths observe exactly the state a fresh make() would give them;
//     whether a buffer came from the pool or the heap can never change
//     a computed float.
//  2. Aliasing safety by construction. Put is always optional — a slab
//     that is never returned is ordinary garbage. The only way to
//     corrupt state is returning a slab that is still referenced, so
//     every Put in the tree sits at a deterministic join point (end of
//     a column evaluation, end of a search, end of an append).
//  3. Observability. Every class counts hits, misses, puts and drops,
//     and tracks slabs currently outstanding; smiler.System bridges the
//     snapshot into /metrics as smiler_memsys_* families.
//
// Free lists are fixed-capacity buffered channels (the aistore idiom):
// Get and Put are a nonblocking channel op each — no locks, no boxing
// allocations — and the worst-case memory retained per class is
// bounded by the channel capacity at construction time.
package memsys

import (
	"sync/atomic"
)

// Class layout. Slabs are powers of two from 1<<minShift to
// 1<<maxShift elements; larger requests fall through to the heap.
const (
	minShift = 5  // smallest slab: 32 elements
	maxShift = 20 // largest slab: 1 Mi elements (8 MiB of float64)
	nClasses = maxShift - minShift + 1
)

// enabled gates the whole pool: when false, Get degrades to plain
// make and Put to a no-op — the unpooled reference behaviour the
// determinism tests compare against. Process-global by design:
// pooling is an allocator property, like GOGC.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether pooling is active.
func Enabled() bool { return enabled.Load() }

// SetEnabled switches pooling on or off process-wide. Disabling does
// not invalidate outstanding slabs (they simply stop being recycled).
func SetEnabled(v bool) { enabled.Store(v) }

// classStats holds one size class's counters.
type classStats struct {
	hits   atomic.Uint64
	misses atomic.Uint64
	puts   atomic.Uint64
	drops  atomic.Uint64
	inuse  atomic.Int64
}

// ClassStats is a point-in-time snapshot of one size class.
type ClassStats struct {
	// Size is the slab length in elements (float64s, bytes or ints).
	Size int
	// Hits counts Gets served from the free list.
	Hits uint64
	// Misses counts Gets that fell through to the heap.
	Misses uint64
	// Puts counts slabs returned and accepted.
	Puts uint64
	// Drops counts slabs returned to a full free list (left to the GC).
	Drops uint64
	// InUse is the number of slabs currently outstanding (Gets minus
	// returns, including dropped returns).
	InUse int64
}

// floatPool is the float64 side of the allocator.
var floatPool = newPool[float64]()

// bytePool is the byte side.
var bytePool = newPool[byte]()

// intPool holds position lists (the kNN verify engine's survivor
// lists).
var intPool = newPool[int]()

type pool[T float64 | byte | int] struct {
	free  [nClasses]chan []T
	stats [nClasses]classStats
}

// freeCap bounds how many idle slabs a class retains: small classes
// keep more (they churn fastest), large classes keep a handful so the
// worst-case idle footprint stays a few tens of MiB.
func freeCap(shift int) int {
	if shift >= 14 {
		return 8
	}
	c := 1 << (14 - shift) // 512 at 1<<5 down to 8 at 1<<14 and above
	if c > 512 {
		c = 512
	}
	return c
}

func newPool[T float64 | byte | int]() *pool[T] {
	p := &pool[T]{}
	for i := range p.free {
		p.free[i] = make(chan []T, freeCap(minShift+i))
	}
	return p
}

// classFor returns the class index serving a request of n elements,
// or -1 when n exceeds the largest class.
func classFor(n int) int {
	if n > 1<<maxShift {
		return -1
	}
	c := 0
	for sz := 1 << minShift; sz < n; sz <<= 1 {
		c++
	}
	return c
}

// get returns a zeroed slab of length n.
func (p *pool[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := classFor(n)
	if !enabled.Load() || c < 0 {
		// Plain heap semantics; not tracked (Put of such a slab is a
		// no-op unless n landed exactly on a class size, in which case
		// the gauges drift by a few — they are best-effort).
		return make([]T, n)
	}
	st := &p.stats[c]
	st.inuse.Add(1)
	select {
	case s := <-p.free[c]:
		st.hits.Add(1)
		s = s[:n]
		clear(s)
		return s
	default:
		st.misses.Add(1)
		return make([]T, n, 1<<(minShift+c))
	}
}

// put recycles a slab obtained from get. Only slabs whose capacity is
// exactly a class size are accepted; anything else (including slabs
// from plain make) is left to the GC. Safe to call with nil.
func (p *pool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	c := classFor(cap(s))
	if c < 0 || cap(s) != 1<<(minShift+c) {
		return
	}
	st := &p.stats[c]
	st.inuse.Add(-1)
	if !enabled.Load() {
		st.drops.Add(1)
		return
	}
	// Nonblocking: a full free list means the class is over its idle
	// cap, so the slab is surrendered to the GC.
	select {
	case p.free[c] <- s[:0]:
		st.puts.Add(1)
	default:
		st.drops.Add(1)
	}
}

func (p *pool[T]) snapshot() []ClassStats {
	out := make([]ClassStats, nClasses)
	for i := range out {
		st := &p.stats[i]
		out[i] = ClassStats{
			Size:   1 << (minShift + i),
			Hits:   st.hits.Load(),
			Misses: st.misses.Load(),
			Puts:   st.puts.Load(),
			Drops:  st.drops.Load(),
			InUse:  st.inuse.Load(),
		}
	}
	return out
}

// GetFloats returns a zeroed []float64 of length n (capacity rounded
// up to the slab class). n <= 0 returns nil.
func GetFloats(n int) []float64 { return floatPool.get(n) }

// PutFloats recycles a slab from GetFloats. The caller must not touch
// the slice afterwards. Optional: never calling it only costs GC work.
func PutFloats(s []float64) { floatPool.put(s) }

// GetBytes returns a zeroed []byte of length n.
func GetBytes(n int) []byte { return bytePool.get(n) }

// PutBytes recycles a slab from GetBytes.
func PutBytes(b []byte) { bytePool.put(b) }

// GetInts returns a zeroed []int of length n.
func GetInts(n int) []int { return intPool.get(n) }

// PutInts recycles a slab from GetInts.
func PutInts(s []int) { intPool.put(s) }

// FloatStats snapshots the float64 classes.
func FloatStats() []ClassStats { return floatPool.snapshot() }

// ByteStats snapshots the byte classes.
func ByteStats() []ClassStats { return bytePool.snapshot() }

// IntStats snapshots the int classes.
func IntStats() []ClassStats { return intPool.snapshot() }

// Totals aggregates a snapshot into one row.
func Totals(cs []ClassStats) ClassStats {
	var t ClassStats
	for _, c := range cs {
		t.Hits += c.Hits
		t.Misses += c.Misses
		t.Puts += c.Puts
		t.Drops += c.Drops
		t.InUse += c.InUse
	}
	return t
}
