package index

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"smiler/internal/memsys"
)

// SearchMulti answers the Suffix kNN Search for several horizons in a
// single pass. The horizon only changes the label-validity mask
// (candidates must satisfy t ≤ |C| − d − h), so the group-level lower
// bounds are produced once and each candidate segment's DTW is
// verified at most once, no matter how many horizons ask for it. The
// result maps each horizon to its per-item-query kNN sets, each
// identical to what Search(k, h) would return.
func (ix *Index) SearchMulti(k int, hs []int) (map[int][]ItemResult, error) {
	return ix.SearchMultiCtx(context.Background(), k, hs)
}

// SearchMultiCtx is SearchMulti with a context, with the same deadline
// semantics as SearchCtx: chunk-granular aborts in exact mode,
// best-so-far results plus Stats() quality counters in anytime mode.
func (ix *Index) SearchMultiCtx(ctx context.Context, k int, hs []int) (map[int][]ItemResult, error) {
	if ix.closed {
		return nil, errors.New("index: closed")
	}
	if k <= 0 {
		return nil, fmt.Errorf("index: k=%d must be positive", k)
	}
	if len(hs) == 0 {
		return nil, errors.New("index: empty horizon list")
	}
	sorted := append([]int(nil), hs...)
	sort.Ints(sorted)
	if sorted[0] <= 0 {
		return nil, fmt.Errorf("index: horizon %d must be positive", sorted[0])
	}
	ix.stats = SearchStats{}

	// Lower bounds once, with the smallest horizon's (largest) mask.
	hMin := sorted[0]
	lbs, err := ix.groupLevelLowerBounds(ctx, hMin)
	if err != nil {
		return nil, err
	}
	defer releaseBounds(lbs)

	out := make(map[int][]ItemResult, len(sorted))
	for _, h := range sorted {
		out[h] = make([]ItemResult, len(ix.p.ELV))
	}

	// Filter phase: per item query, union the per-horizon filters into
	// one need mask (a candidate is verified when any horizon keeps it)
	// with the per-horizon thresholds derived on their own candidate
	// ranges. The early-abandon cutoff is the max threshold over
	// horizons: τ_h ≤ τ_max for every h, so a candidate abandoned at
	// τ_max has true distance > τ_max ≥ τ_h and cannot be among any
	// horizon's k nearest — the seeds backing each τ_h all have true
	// distance ≤ τ_h and survive fully computed.
	n := len(ix.c)
	tasks := make([]*verifyTask, len(ix.p.ELV))
	defer releaseTaskDists(tasks)
	for i, d := range ix.p.ELV {
		nPos := len(lbs[i])
		if nPos == 0 {
			continue
		}
		query := ix.c[n-d:]
		need := make([]bool, nPos)
		tauMax := math.Inf(-1)
		var seeds []seedCand
		any := false
		for _, h := range sorted {
			maxT := n - d - h
			if maxT >= nPos {
				maxT = nPos - 1
			}
			if maxT < 0 {
				continue
			}
			tau, hSeeds, err := ix.threshold(d, query, lbs[i][:maxT+1], k)
			if err != nil {
				return nil, err
			}
			seeds = append(seeds, hSeeds...)
			if tau > tauMax {
				tauMax = tau
			}
			for t := 0; t <= maxT; t++ {
				if lbs[i][t] <= tau {
					need[t] = true
					any = true
				}
			}
		}
		if !any {
			continue
		}
		tasks[i] = &verifyTask{d: d, query: query, lbs: lbs[i], need: need, cutoff: ix.abandonCutoff(tauMax), seeds: seeds}
	}
	if err := ix.verifyProgressive(ctx, tasks, k); err != nil {
		return nil, err
	}

	inf := math.Inf(1)
	for i, d := range ix.p.ELV {
		t := tasks[i]
		var dists []float64
		if t != nil {
			dists = t.dists
		} else {
			dists = memsys.GetFloats(len(lbs[i]))
			for j := range dists {
				dists[j] = inf
			}
			defer memsys.PutFloats(dists)
		}
		for _, h := range sorted {
			maxT := n - d - h
			if maxT >= len(dists) {
				maxT = len(dists) - 1
			}
			var neighbors []Neighbor
			if maxT >= 0 {
				neighbors, err = ix.selectK(dists[:maxT+1], k)
				if err != nil {
					return nil, err
				}
			}
			out[h][i] = ItemResult{D: d, Neighbors: neighbors}
			if h == hMin {
				prev := make([]int, len(neighbors))
				for j, nb := range neighbors {
					prev[j] = nb.T
				}
				ix.prevNN[d] = prev
			}
		}
	}
	return out, nil
}
