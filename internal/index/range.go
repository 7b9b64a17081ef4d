package index

import (
	"context"
	"errors"
	"fmt"
	"math"

	"smiler/internal/gpusim"
)

// SearchRange answers the ε-range variant of the Suffix search: for
// every item query length in ELV it returns ALL historical segments
// within DTW distance eps (squared-cost convention, like every
// distance in this package), considering only candidates whose
// h-step-ahead label exists. Range search is the classic DualMatch
// workload; on the SMiLer Index it reuses the same group-level lower
// bounds — the filter threshold is simply eps itself, no k-th-NN
// bootstrap needed. Results are sorted ascending by distance.
func (ix *Index) SearchRange(eps float64, h int) ([]ItemResult, error) {
	return ix.SearchRangeCtx(context.Background(), eps, h)
}

// SearchRangeCtx is SearchRange with a context, with the same deadline
// semantics as SearchCtx. A progressive range result is the subset of
// in-range segments found before the deadline; Stats() reports the
// fraction of candidates verified and the probability the subset is
// already complete.
func (ix *Index) SearchRangeCtx(ctx context.Context, eps float64, h int) ([]ItemResult, error) {
	if ix.closed {
		return nil, errors.New("index: closed")
	}
	if eps < 0 || math.IsNaN(eps) {
		return nil, fmt.Errorf("index: invalid range radius %v", eps)
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
	// The filter threshold is eps itself, and eps is also an exact
	// early-abandon cutoff: a candidate abandoned at eps has true
	// distance > eps and is outside the range by definition.
	results := make([]ItemResult, len(ix.p.ELV))
	n := len(ix.c)
	tasks := make([]*verifyTask, len(ix.p.ELV))
	defer releaseTaskDists(tasks)
	for i, d := range ix.p.ELV {
		results[i] = ItemResult{D: d}
		if len(lbs[i]) == 0 {
			continue
		}
		query := ix.c[n-d:]
		tasks[i] = &verifyTask{d: d, query: query, lbs: lbs[i], tau: eps, cutoff: ix.abandonCutoff(eps), rangeMode: true}
	}
	if err := ix.verifyProgressive(ctx, tasks, 0); err != nil {
		return nil, err
	}
	for i, t := range tasks {
		if t == nil {
			continue
		}
		dists := t.dists
		var sel []gpusim.KSelectResult
		if err := ix.dev.Launch(1, func(blk *gpusim.Block) error {
			// Range selection: keep everything within eps; reuse the
			// k-selection kernel with k = candidate count, then trim.
			sel = gpusim.KSelectBlock(blk, dists, len(dists))
			return nil
		}); err != nil {
			return nil, err
		}
		for _, s := range sel {
			if s.Value > eps {
				break // sorted ascending: nothing further qualifies
			}
			results[i].Neighbors = append(results[i].Neighbors, Neighbor{T: s.Index, Dist: s.Value})
		}
	}
	return results, nil
}

// CountRange reports, per ELV entry, how many historical segments lie
// within DTW distance eps of the current suffix — a cheap density
// probe (how much support would a semi-lazy model have right now?).
func (ix *Index) CountRange(eps float64, h int) (map[int]int, error) {
	res, err := ix.SearchRange(eps, h)
	if err != nil {
		return nil, err
	}
	out := make(map[int]int, len(res))
	for _, r := range res {
		out[r.D] = len(r.Neighbors)
	}
	return out, nil
}
