// Package anytime is the quality side of the anytime prediction
// engine: it quantifies how far a progressive (best-so-far) kNN result
// is from the exact answer.
//
// ProS (Echihabi et al., arXiv 2212.13310) shows that a kNN search
// which verifies candidates in ascending lower-bound order can stop at
// any point and report the probability that its best-so-far set
// already equals the exact set — the estimate below follows the same
// construction from observed "flip" frequencies.
//
// The package is deliberately free of index/pipeline dependencies so
// every layer (index, core) can share its types.
package anytime

import "math"

// Quality describes how close a progressive kNN result is to the exact
// answer. A completed search reports the zero-risk values (Exact true,
// FracVerified 1, LBGap 0, ProbExact 1).
type Quality struct {
	// Exact is true when the result is provably the exact kNN set:
	// every candidate was verified, or every unverified candidate's
	// lower bound already exceeds the k-th best-so-far distance.
	Exact bool
	// FracVerified is the fraction of filter-surviving candidates whose
	// exact DTW distance was computed before the deadline fired.
	FracVerified float64
	// LBGap is the relative gap between the smallest unverified lower
	// bound and the k-th best-so-far distance, in [0,1]: 0 means the
	// bound already seals the result, 1 means an unverified candidate
	// could still be arbitrarily closer.
	LBGap float64
	// ProbExact is the ProS-style estimate of the probability that the
	// best-so-far set equals the exact set (up to distance ties).
	ProbExact float64
}

// EstimateProbExact is the ProS-style stopping estimate: during
// verification, atRisk counts candidates whose lower bound was below
// the running k-th best distance (so they could have entered the set)
// and flips counts how many actually did. The empirical flip rate,
// Laplace-smoothed so tiny samples stay conservative, gives the
// probability that none of the remaining at-risk candidates would flip
// the set either.
func EstimateProbExact(flips, atRisk, remaining int) float64 {
	if remaining <= 0 {
		return 1
	}
	rate := (float64(flips) + 1) / (float64(atRisk) + 2)
	if rate >= 1 {
		return 0
	}
	return math.Pow(1-rate, float64(remaining))
}
