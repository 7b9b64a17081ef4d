package index

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"time"

	"smiler/internal/anytime"
	"smiler/internal/dtw"
	"smiler/internal/gpusim"
	"smiler/internal/memsys"
)

// Anytime configures progressive (deadline-aware) search. When Enabled,
// candidate verification proceeds in rounds, cheapest lower bounds
// first, and an expired context deadline stops the rounds instead of
// aborting the search: the call returns the current best-so-far kNN set
// per item query plus quality counters in Stats(). With no deadline
// every round runs, every surviving candidate is verified with the same
// cutoff exact search uses, and the results are bit-identical to exact
// search.
type Anytime struct {
	// Enabled switches Search/SearchMulti/SearchRange to progressive
	// rounds.
	Enabled bool
}

// SetAnytime configures progressive search on the index.
func (ix *Index) SetAnytime(a Anytime) { ix.any = a }

// AnytimeConfig returns the current progressive-search configuration.
func (ix *Index) AnytimeConfig() Anytime { return ix.any }

// progMaxRoundChunks caps one round at this many verify chunks per item
// query. Rounds grow geometrically (one chunk, two, four, ...) up to
// the cap: early rounds are fine-grained so a tight deadline still
// completes a few, and the cap bounds deadline overshoot to one round
// of in-flight chunks.
const progMaxRoundChunks = 8

// topK tracks the running k smallest verified distances (ascending).
// It only backs the quality estimate; the returned neighbours come from
// the block k-selection over the distance rows.
type topK struct {
	k int
	d []float64
}

// add inserts a finite distance, reporting whether it entered the set
// (displaced the current k-th or grew the set below k).
func (t *topK) add(v float64) bool {
	if t.k <= 0 || math.IsInf(v, 1) || math.IsNaN(v) {
		return false
	}
	if len(t.d) == t.k && v >= t.d[t.k-1] {
		return false
	}
	i := sort.SearchFloat64s(t.d, v)
	if len(t.d) < t.k {
		t.d = append(t.d, 0)
	}
	copy(t.d[i+1:], t.d[i:])
	t.d[i] = v
	return true
}

// kth returns the current k-th smallest distance, +Inf until k
// candidates have been found.
func (t *topK) kth() float64 {
	if len(t.d) < t.k {
		return math.Inf(1)
	}
	return t.d[t.k-1]
}

// verifyTask describes one item query's share of verification: which
// candidates to verify (an explicit need mask, or the lb ≤ τ filter),
// the early-abandon cutoff, the output distances (+Inf for filtered or
// abandoned candidates) and the engine's progress and quality state.
type verifyTask struct {
	d      int
	query  []float64
	lbs    []float64
	need   []bool // nil: filter by lbs[t] ≤ tau
	tau    float64
	cutoff float64 // early-abandon cutoff (+Inf disables)

	// seeds are the threshold candidates with their exact distances;
	// the engine prefills them instead of verifying them again.
	seeds []seedCand
	// rangeMode marks an ε-range task: quality accounting compares
	// against the fixed radius tau instead of a running k-th distance.
	rangeMode bool

	dists []float64 // out: exact DTW or +Inf (pooled)

	// Engine state (see verifyProgressive).
	order  []int // surviving non-seed positions (pooled)
	sorted bool  // order is ascending (lower bound, position), not position
	next   int   // order[:next] is verified
	top    topK  // running k best; maintained only for sorted tasks

	// Quality counters.
	kept       int     // candidates surviving the filter (incl. seeds)
	verified   int     // candidates with exact distances computed
	flips      int     // verified at-risk candidates that entered the set
	atRisk     int     // verified candidates that could have entered
	remaining  int     // unverified candidates still able to change the set
	minUnverLB float64 // smallest unverified lower bound (+Inf if none)
	kthDist    float64 // k-th best-so-far distance (+Inf until k found)
	complete   bool    // every kept candidate verified
}

// keep reports whether candidate position t must be verified.
func (t *verifyTask) keep(pos int) bool {
	if t.need != nil {
		return t.need[pos]
	}
	return t.lbs[pos] <= t.tau
}

// verifyRef is one block of a verify round: order[lo:hi] of task, plus
// the filter-scan charge (candidate positions tested) the block pays.
type verifyRef struct {
	task, lo, hi, scan int
}

// verifyProgressive is the index's verification engine, shared by
// Search, SearchMulti and SearchRange; tasks[i] is item query i's task
// (nil when it has no candidates). The threshold seeds prefill the
// output — their exact distances are already known — and the other
// filter survivors are verified in rounds, one fused launch per round,
// each block verifying one chunk of at most verifyChunk candidates of
// one task. The first round also charges every task's filter scan
// (Section 4.4's two-phase filter/verify) to the simulated device.
//
// Exact mode is the one-round schedule: every survivor goes into one
// launch in position order, chunked by verifyChunk-wide position
// windows, and every block checks the context, so an expired deadline
// aborts with ctx.Err() within the chunks already in flight. Anytime
// mode grows rounds geometrically (one chunk per task, two, four, ...)
// in ascending lower-bound order and checks the deadline between
// rounds: when it fires, each task keeps its best-so-far distances plus
// the counters the ProS-style quality estimate needs. A task is sorted
// only when its survivors do not fit in its first round; when one round
// completes it, order cannot change its distances, counts or quality.
//
// Every survivor is verified with the task's cutoff in either mode, so
// with an unexpired context the distance rows — and the neighbours
// selected from them — are identical. The per-item Unfiltered counters
// and the quality summary are written to the search stats.
func (ix *Index) verifyProgressive(ctx context.Context, tasks []*verifyTask, k int) error {
	inf := math.Inf(1)
	wallStart := time.Now()
	defer func() { ix.stats.VerifyWallSeconds += time.Since(wallStart).Seconds() }()
	before := ix.dev.SimSeconds()
	defer func() { ix.stats.VerifySimSeconds += ix.dev.SimSeconds() - before }()
	defer func() {
		for _, t := range tasks {
			if t != nil {
				memsys.PutInts(t.order)
				t.order = nil
			}
		}
	}()

	exact := !ix.any.Enabled
	roundSize := verifyChunk
	if exact {
		roundSize = math.MaxInt
	}
	for _, t := range tasks {
		if t == nil {
			continue
		}
		n := len(t.lbs)
		t.dists = memsys.GetFloats(n)
		for i := range t.dists {
			t.dists[i] = inf
		}
		t.minUnverLB = inf
		// Seed prefill: each seed has dist ≤ τ (≤ the cutoff), so
		// verification would compute the identical value. Duplicate
		// seeds (SearchMulti's horizons share positions) are dropped.
		seeds := t.seeds[:0]
		for _, s := range t.seeds {
			if s.t < 0 || s.t >= n || !t.keep(s.t) || !math.IsInf(t.dists[s.t], 1) {
				continue
			}
			t.dists[s.t] = s.dist
			seeds = append(seeds, s)
		}
		t.seeds = seeds
		t.kept = len(seeds)
		t.verified = len(seeds)
		pending := func(pos int) bool { return t.keep(pos) && math.IsInf(t.dists[pos], 1) }
		cnt := 0
		for pos := 0; pos < n; pos++ {
			if pending(pos) {
				cnt++
			}
		}
		t.order = memsys.GetInts(cnt)[:0]
		for pos := 0; pos < n; pos++ {
			if pending(pos) {
				t.order = append(t.order, pos)
			}
		}
		t.kept += cnt
		if len(t.order) > roundSize {
			t.sorted = true
			// (lower bound, position) is a strict total order, so the
			// rounds are deterministic.
			slices.SortFunc(t.order, func(a, b int) int {
				if c := cmp.Compare(t.lbs[a], t.lbs[b]); c != 0 {
					return c
				}
				return a - b
			})
			if !t.rangeMode {
				t.top = topK{k: k}
				for _, s := range t.seeds {
					t.top.add(s.dist)
				}
			}
		}
	}

	rho := ix.p.Rho
	for round := 0; ; round++ {
		refs := ix.refs[:0]
		for ti, t := range tasks {
			if t == nil {
				continue
			}
			scan := 0
			if round == 0 {
				scan = len(t.lbs)
			}
			lo, hi := t.next, t.roundEnd(roundSize)
			for lo < hi {
				end := lo + 1
				for end < hi && end-lo < verifyChunk && (t.sorted || t.order[end]/verifyChunk == t.order[lo]/verifyChunk) {
					end++
				}
				refs = append(refs, verifyRef{task: ti, lo: lo, hi: end, scan: scan})
				lo, scan = end, 0
			}
			if scan > 0 { // no survivors to verify: the block only filters
				refs = append(refs, verifyRef{task: ti, scan: scan})
			}
		}
		ix.refs = refs
		if len(refs) == 0 {
			break // every task fully verified
		}
		ix.stats.Rounds++
		roundStart := time.Now()
		err := ix.dev.Launch(len(refs), func(blk *gpusim.Block) error {
			if exact {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			ref := refs[blk.ID]
			t := tasks[ref.task]
			blk.GlobalAccess(ref.scan)
			cnt := ref.hi - ref.lo
			if cnt == 0 {
				return nil
			}
			d := t.d
			if err := blk.AllocShared(8 * d); err != nil { // query resident
				return err
			}
			if err := blk.AllocShared(8 * dtw.CompressedScratchLen(rho)); err != nil {
				return err
			}
			scratch := dtw.GetCompressedScratch(rho)
			defer dtw.PutCompressedScratch(scratch)
			totalCols, maxCols := 0, 0
			for _, pos := range t.order[ref.lo:ref.hi] {
				dist, cols, err := dtw.DistanceCompressedAbandon(t.query, ix.c[pos:pos+d], rho, t.cutoff, scratch)
				if err != nil {
					return err
				}
				t.dists[pos] = dist
				totalCols += cols
				if cols > maxCols {
					maxCols = cols
				}
			}
			// Honest abandon accounting: candidates stream only the
			// columns that were processed, and each lane fills
			// cols·(2ρ+1) band cells in lock-step waves bounded by the
			// longest lane.
			blk.GlobalAccess(totalCols)
			blk.ParallelCompute(cnt, maxCols*(2*rho+1)*6)
			return nil
		})
		ix.stats.RoundWallSeconds = append(ix.stats.RoundWallSeconds, time.Since(roundStart).Seconds())
		if err != nil {
			return err
		}
		// Deterministic host-side quality bookkeeping, in cost order.
		// A task this round completes needs none.
		for _, t := range tasks {
			if t == nil {
				continue
			}
			hi := t.roundEnd(roundSize)
			if hi < len(t.order) {
				t.account(t.order[t.next:hi])
			}
			t.verified += hi - t.next
			t.next = hi
		}
		if exact || ctx.Err() != nil {
			break
		}
		if roundSize < progMaxRoundChunks*verifyChunk {
			roundSize *= 2
		}
	}

	for i, t := range tasks {
		if t == nil {
			continue
		}
		ix.stats.Unfiltered += t.verified
		if i < len(ix.stats.PerItem) {
			ix.stats.PerItem[i].Unfiltered = t.verified
		}
		t.complete = t.next == len(t.order)
		if t.complete {
			continue
		}
		t.kthDist = t.tau
		if !t.rangeMode {
			t.kthDist = t.top.kth()
		}
		for _, pos := range t.order[t.next:] {
			lb := t.lbs[pos]
			if lb < t.minUnverLB {
				t.minUnverLB = lb
			}
			if lb < t.kthDist {
				t.remaining++
			}
		}
	}
	ix.finishQuality(tasks)
	return nil
}

// roundEnd returns the end of the task's next round of at most size
// candidates.
func (t *verifyTask) roundEnd(size int) int {
	if size < len(t.order)-t.next {
		return t.next + size
	}
	return len(t.order)
}

// account updates the ProS counters with freshly verified positions:
// a candidate is at risk when its lower bound is below the running k-th
// distance (or within ε in range mode), and flips when it enters the
// set.
func (t *verifyTask) account(verified []int) {
	for _, pos := range verified {
		dist := t.dists[pos]
		if t.rangeMode {
			t.atRisk++
			if dist <= t.tau {
				t.flips++
			}
			continue
		}
		if kth := t.top.kth(); t.lbs[pos] < kth || math.IsInf(kth, 1) {
			t.atRisk++
			if t.top.add(dist) {
				t.flips++
			}
		}
	}
}

// finishQuality aggregates the per-task counters into the search
// stats: worst case over item queries, so one starved column marks the
// whole search progressive.
func (ix *Index) finishQuality(tasks []*verifyTask) {
	q := aggregateQuality(tasks)
	ix.stats.Progressive = !q.Exact
	ix.stats.FracVerified = q.FracVerified
	ix.stats.LBGap = q.LBGap
	ix.stats.ProbExact = q.ProbExact
	if !q.Exact {
		totVerified := 0
		for _, t := range tasks {
			if t != nil {
				totVerified += t.verified
			}
		}
		ix.stats.VerifiedAtDeadline = totVerified
	}
}

// aggregateQuality folds per-task counters into one anytime.Quality
// describing the whole search (worst case over tasks).
func aggregateQuality(tasks []*verifyTask) anytime.Quality {
	q := anytime.Quality{Exact: true, FracVerified: 1, ProbExact: 1}
	totKept, totVerified := 0, 0
	for _, t := range tasks {
		if t == nil {
			continue
		}
		totKept += t.kept
		totVerified += t.verified
		if t.complete {
			continue
		}
		// Sealed early: every unverified lower bound already exceeds the
		// k-th best-so-far distance, so the set is provably exact (up to
		// distance ties) even though verification stopped. Range mode
		// needs the strict comparison — a candidate at lb == ε can still
		// sit exactly on the radius.
		if t.minUnverLB > t.kthDist || (!t.rangeMode && t.minUnverLB >= t.kthDist) {
			continue
		}
		q.Exact = false
		gap := 1.0
		if !math.IsInf(t.kthDist, 1) && t.kthDist > 0 {
			gap = 1 - t.minUnverLB/t.kthDist
			if gap < 0 {
				gap = 0
			}
			if gap > 1 {
				gap = 1
			}
		}
		if gap > q.LBGap {
			q.LBGap = gap
		}
		if p := anytime.EstimateProbExact(t.flips, t.atRisk, t.remaining); p < q.ProbExact {
			q.ProbExact = p
		}
	}
	if totKept > 0 {
		q.FracVerified = float64(totVerified) / float64(totKept)
	}
	if q.Exact {
		q.FracVerified = 1
		q.LBGap = 0
		q.ProbExact = 1
	}
	return q
}
