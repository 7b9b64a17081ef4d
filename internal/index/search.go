package index

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"smiler/internal/dtw"
	"smiler/internal/gpusim"
	"smiler/internal/memsys"
)

// Neighbor is one kNN result: the segment C[T : T+D] at distance Dist
// from the item query of length D. Its h-step-ahead label is the
// observation C[T+D-1+h].
type Neighbor struct {
	T    int
	Dist float64
}

// ItemResult holds the kNN set of one item query.
type ItemResult struct {
	// D is the item query length (an entry of ELV).
	D int
	// Neighbors is sorted ascending by distance (ties by T). It may be
	// shorter than k when the history has fewer valid candidates.
	Neighbors []Neighbor
}

// verifyChunk is the most candidates one verification block verifies
// (two-phase filter/verify per Section 4.4 keeps the block's lanes
// homogeneous), and the width of the candidate-position windows the
// one-round exact schedule cuts its blocks at.
const verifyChunk = 256

// Search answers the Suffix kNN Search for the current master query:
// for every item query length in ELV it returns the k nearest
// historical segments under banded DTW, considering only candidates
// whose h-step-ahead label already exists (t ≤ |C| − d − h). The
// result slice is ordered like ELV.
func (ix *Index) Search(k, h int) ([]ItemResult, error) {
	return ix.SearchCtx(context.Background(), k, h)
}

// SearchCtx is Search with a context. In exact mode an expired deadline
// surfaces as ctx.Err() at verify-chunk granularity (the one-round
// launch aborts within one in-flight chunk per worker instead of
// overshooting by the whole verification phase). In anytime mode
// (SetAnytime) the deadline instead stops the cost-ordered verification
// rounds and the call returns the current best-so-far kNN sets with
// quality counters in Stats().
func (ix *Index) SearchCtx(ctx context.Context, k, h int) ([]ItemResult, error) {
	if ix.closed {
		return nil, errors.New("index: closed")
	}
	if k <= 0 {
		return nil, fmt.Errorf("index: k=%d must be positive", k)
	}
	if h <= 0 {
		return nil, fmt.Errorf("index: horizon h=%d must be positive", h)
	}
	ix.stats = SearchStats{}

	lbs, err := ix.groupLevelLowerBounds(ctx, h)
	if err != nil {
		return nil, err
	}
	defer releaseBounds(lbs)

	// Filter phase per item query (threshold derivation is cheap and
	// seeds from the previous step's kNN), then the shared verification
	// engine over every item query, then selection.
	n := len(ix.c)
	results := make([]ItemResult, len(ix.p.ELV))
	tasks := make([]*verifyTask, len(ix.p.ELV))
	defer releaseTaskDists(tasks)
	for i, d := range ix.p.ELV {
		results[i] = ItemResult{D: d}
		if len(lbs[i]) == 0 {
			continue
		}
		query := ix.c[n-d:]
		tau, seeds, err := ix.threshold(d, query, lbs[i], k)
		if err != nil {
			return nil, err
		}
		tasks[i] = &verifyTask{d: d, query: query, lbs: lbs[i], tau: tau, cutoff: ix.abandonCutoff(tau), seeds: seeds}
	}
	if err := ix.verifyProgressive(ctx, tasks, k); err != nil {
		return nil, err
	}
	for i, d := range ix.p.ELV {
		t := tasks[i]
		if t == nil {
			continue
		}
		neighbors, err := ix.selectK(t.dists, k)
		if err != nil {
			return nil, err
		}
		results[i].Neighbors = neighbors
		prev := make([]int, len(neighbors))
		for j, nb := range neighbors {
			prev[j] = nb.T
		}
		ix.prevNN[d] = prev
	}
	return results, nil
}

// abandonCutoff returns the early-abandon cutoff threaded into DTW
// verification: τ itself when the exactness argument holds — the
// threshold construction guarantees at least k candidates with true
// distance ≤ τ (when fewer exist, every candidate was a seed and τ
// bounds them all), and ties at τ survive because abandonment fires
// only on strictly greater column minima — and +Inf when the separated
// selection needs exact distances for every unfiltered candidate or
// the ablation knob disables it.
func (ix *Index) abandonCutoff(tau float64) float64 {
	if ix.p.MinSeparation > 1 || ix.p.DisableEarlyAbandon {
		return math.Inf(1)
	}
	return tau
}

// ComputeLowerBounds exposes the group-level lower-bound pass on its
// own: one bound slice per ELV entry, indexed by candidate position
// (+Inf where no valid candidate exists). The Fig. 8 experiment uses
// it to compare LBen production with and without the window-level
// index.
func (ix *Index) ComputeLowerBounds(h int) ([][]float64, error) {
	if ix.closed {
		return nil, errors.New("index: closed")
	}
	if h <= 0 {
		return nil, fmt.Errorf("index: horizon h=%d must be positive", h)
	}
	ix.stats = SearchStats{}
	return ix.groupLevelLowerBounds(context.Background(), h)
}

// groupLevelLowerBounds runs the group-level kernel: one block per CSG
// identifier b ∈ [0, ω), shift-summing window-level posting lists to
// produce, for every item query i and candidate position t, the window
// enhanced lower bound LBw (Theorem 4.3, Algorithm 1). Positions whose
// label does not exist yet are left at +Inf.
func (ix *Index) groupLevelLowerBounds(ctx context.Context, h int) ([][]float64, error) {
	wallStart := time.Now()
	defer func() { ix.stats.LowerBoundWallSeconds += time.Since(wallStart).Seconds() }()
	n := len(ix.c)
	omega := ix.p.Omega
	inf := math.Inf(1)

	lbs := make([][]float64, len(ix.p.ELV))
	maxT := make([]int, len(ix.p.ELV))
	for i, d := range ix.p.ELV {
		maxT[i] = n - d - h // last candidate start with an existing label
		if maxT[i] < 0 {
			maxT[i] = -1
		}
		// History-length bound rows are the Search Step's biggest
		// transient; Search/SearchMulti return them to the pool when the
		// kNN sets have been extracted.
		lbs[i] = memsys.GetFloats(maxT[i] + 1)
		for t := range lbs[i] {
			lbs[i][t] = inf
		}
	}

	before := ix.dev.SimSeconds()
	err := ix.dev.Launch(omega, func(blk *gpusim.Block) error {
		// Per-block deadline check: an expired context aborts the pass
		// within the blocks already in flight.
		if err := ctx.Err(); err != nil {
			return err
		}
		b := blk.ID
		// Precompute, per item query, the CSG size m_i = ⌊(d_i−b)/ω⌋
		// and remainder used by the alignment formula (Lemma 4.1).
		m := make([]int, len(ix.p.ELV))
		rem := make([]int, len(ix.p.ELV))
		for i, d := range ix.p.ELV {
			m[i] = (d - b) / omega
			rem[i] = (d - b) % omega
		}
		maxJ := (ix.nSW - 1 - b) / omega // deepest window of CSG_b in MQ
		for r := 0; r < ix.nDW; r++ {
			var sumEQ, sumEC float64
			jHi := maxJ
			if r < jHi {
				jHi = r
			}
			for j := 0; j <= jHi; j++ {
				s := ix.slot(b + j*omega)
				sumEQ += ix.postEQ[s][r-j]
				sumEC += ix.postEC[s][r-j]
				blk.GlobalAccess(2)
				blk.Compute(2)
				for i := range ix.p.ELV {
					if m[i] != j+1 {
						continue
					}
					t := (r-j)*omega - rem[i]
					if t < 0 || t > maxT[i] {
						continue
					}
					var lb float64
					switch ix.p.LB {
					case LBModeEQ:
						lb = sumEQ
					case LBModeEC:
						lb = sumEC
					default:
						lb = math.Max(sumEQ, sumEC)
					}
					lbs[i][t] = lb
					blk.GlobalAccess(1)
				}
			}
		}
		return nil
	})
	if err != nil {
		releaseBounds(lbs) // deadline aborts are routine; don't leak the pooled rows
		return nil, err
	}
	ix.stats.LowerBoundSimSeconds += ix.dev.SimSeconds() - before
	ix.stats.PerItem = make([]ItemStats, len(ix.p.ELV))
	for i := range lbs {
		cnt := 0
		for _, v := range lbs[i] {
			if !math.IsInf(v, 1) {
				cnt++
			}
		}
		ix.stats.PerItem[i] = ItemStats{D: ix.p.ELV[i], Candidates: cnt}
		ix.stats.Candidates += cnt
	}
	return lbs, nil
}

// seedCand is one threshold seed: a candidate position whose exact DTW
// distance to the current query was computed while deriving τ. The
// seeds prefill the verification output — during continuous prediction
// they are the previous step's kNN set, so progressive search starts
// from an already-valid best-so-far answer before the first round runs.
type seedCand struct {
	t    int
	dist float64
}

// threshold derives the filter threshold τ for one item query. During
// continuous prediction it reuses the previous step's kNN positions
// (their DTW distances to the *current* query upper-bound the new k-th
// NN distance); on the first query it verifies the k candidates with
// the smallest lower bounds. Both variants are exact: at least k
// candidates have true distance ≤ τ, so no true neighbour is filtered.
// The returned seeds carry those exact distances (each ≤ τ, so the
// τ-cutoff verification pass would reproduce them bit-identically).
func (ix *Index) threshold(d int, query []float64, lbs []float64, k int) (float64, []seedCand, error) {
	var seeds []int
	if prev, ok := ix.prevNN[d]; ok {
		for _, t := range prev {
			if t <= len(lbs)-1 { // still label-valid
				seeds = append(seeds, t)
			}
		}
	}
	if len(seeds) < k {
		// Initial query (or too few reusable positions): take the k
		// smallest lower bounds as seeds.
		seeds = seeds[:0]
		var sel []gpusim.KSelectResult
		if err := ix.dev.Launch(1, func(blk *gpusim.Block) error {
			sel = gpusim.KSelectBlock(blk, lbs, k)
			return nil
		}); err != nil {
			return 0, nil, err
		}
		for _, s := range sel {
			seeds = append(seeds, s.Index)
		}
	}
	if len(seeds) == 0 {
		return math.Inf(1), nil, nil
	}
	out := make([]seedCand, 0, len(seeds))
	tau := math.Inf(-1)
	rho := ix.p.Rho
	err := ix.dev.Launch(1, func(blk *gpusim.Block) error {
		if err := chargeVerifyBlock(blk, d, rho, len(seeds)); err != nil {
			return err
		}
		scratch := dtw.GetCompressedScratch(rho)
		defer dtw.PutCompressedScratch(scratch)
		for _, t := range seeds {
			dist, _, err := dtw.DistanceCompressedAbandon(query, ix.c[t:t+d], rho, math.Inf(1), scratch)
			if err != nil {
				return err
			}
			out = append(out, seedCand{t: t, dist: dist})
			if dist > tau {
				tau = dist
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return tau, out, nil
}

// chargeVerifyBlock charges the cost model for a verification block:
// the query and the compressed warping matrix live in shared memory
// (Algorithm 2 / Appendix E), candidates stream from global memory,
// and each thread fills its candidate's d·(2ρ+1) band cells — about
// six ops per cell counting the shared-memory traffic, which is
// lane-parallel and therefore folded into the per-thread op count.
func chargeVerifyBlock(blk *gpusim.Block, d, rho, candidates int) error {
	if err := blk.AllocShared(8 * d); err != nil { // query resident
		return err
	}
	if err := blk.AllocShared(8 * dtw.CompressedScratchLen(rho)); err != nil {
		return err
	}
	blk.GlobalAccess(d * candidates)
	blk.ParallelCompute(candidates, d*(2*rho+1)*6)
	return nil
}

// releaseBounds returns pooled lower-bound rows. Nothing below the
// Search entry points retains them: verify tasks alias the rows only
// for the duration of the call, and every output (Neighbor lists,
// prevNN) is copied out.
func releaseBounds(lbs [][]float64) {
	for i, s := range lbs {
		lbs[i] = nil
		memsys.PutFloats(s)
	}
}

// releaseTaskDists returns the pooled distance rows of completed
// verify tasks.
func releaseTaskDists(tasks []*verifyTask) {
	for _, t := range tasks {
		if t != nil && t.dists != nil {
			d := t.dists
			t.dists = nil
			memsys.PutFloats(d)
		}
	}
}

// selectK picks the k nearest verified candidates. With MinSeparation
// ≤ 1 this is the exact GPU block k-selection; otherwise a greedy
// sweep over the sorted candidates enforces the separation (best-effort
// among unfiltered candidates — see Params.MinSeparation).
func (ix *Index) selectK(dists []float64, k int) ([]Neighbor, error) {
	if ix.p.MinSeparation > 1 {
		return ix.selectSeparated(dists, k), nil
	}
	var sel []gpusim.KSelectResult
	if err := ix.dev.Launch(1, func(blk *gpusim.Block) error {
		sel = gpusim.KSelectBlock(blk, dists, k)
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(sel))
	for i, s := range sel {
		out[i] = Neighbor{T: s.Index, Dist: s.Value}
	}
	return out, nil
}

// selectSeparated greedily selects up to k nearest candidates keeping
// starts at least MinSeparation apart.
func (ix *Index) selectSeparated(dists []float64, k int) []Neighbor {
	type cand struct {
		t int
		d float64
	}
	var cands []cand
	for t, v := range dists {
		if !math.IsInf(v, 1) && !math.IsNaN(v) {
			cands = append(cands, cand{t, v})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].t < cands[j].t
	})
	sep := ix.p.MinSeparation
	var out []Neighbor
	for _, c := range cands {
		ok := true
		for _, nb := range out {
			if abs(nb.T-c.t) < sep {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, Neighbor{T: c.t, Dist: c.d})
			if len(out) == k {
				break
			}
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
