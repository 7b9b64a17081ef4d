// Package dtw implements Dynamic Time Warping under the Sakoe-Chiba
// band constraint together with the lower-bound machinery SMiLer's
// index is built on: time series envelopes (paper Definition B.1),
// LB_Keogh, the query/data envelope bounds LBEQ and LBEC, and the
// enhanced lower bound LBen = max(LBEQ, LBEC) (Theorem 4.1).
//
// Conventions: all distances accumulate the squared pointwise
// difference dist(a,b) = (a-b)², matching the paper's use of LB_Keogh
// [41]; DTW(Q,C) therefore returns a squared-cost sum (monotone in the
// usual rooted cost, so kNN order is unchanged). Both inputs to DTW
// must have the same length d (the paper assumes equal-length
// comparisons, citing [57]).
package dtw

import (
	"errors"
	"fmt"
	"math"

	"smiler/internal/memsys"
)

// ErrLength is returned when operand lengths are incompatible.
var ErrLength = errors.New("dtw: length mismatch")

func dist(a, b float64) float64 {
	d := a - b
	return d * d
}

// Distance computes the DTW distance between equal-length series q and
// c under a Sakoe-Chiba band of half-width rho, using a full (d+1)²
// dynamic-programming matrix. It is the readable reference
// implementation; DistanceCompressedAbandon is the memory-compressed
// variant the simulated GPU kernels run.
func Distance(q, c []float64, rho int) (float64, error) {
	d := len(q)
	if d == 0 || d != len(c) {
		return 0, fmt.Errorf("%w: |q|=%d |c|=%d", ErrLength, len(q), len(c))
	}
	if rho < 0 {
		return 0, fmt.Errorf("dtw: negative warping width %d", rho)
	}
	inf := math.Inf(1)
	n := d + 1
	// The full DP matrix is the one large transient of the reference
	// path; it lives exactly one call, so pool it.
	g := memsys.GetFloats(n * n)
	defer memsys.PutFloats(g)
	for i := range g {
		g[i] = inf
	}
	g[0] = 0
	for i := 1; i <= d; i++ {
		jlo, jhi := i-rho, i+rho
		if jlo < 1 {
			jlo = 1
		}
		if jhi > d {
			jhi = d
		}
		for j := jlo; j <= jhi; j++ {
			best := g[(i-1)*n+j]
			if v := g[i*n+j-1]; v < best {
				best = v
			}
			if v := g[(i-1)*n+j-1]; v < best {
				best = v
			}
			g[i*n+j] = dist(q[i-1], c[j-1]) + best
		}
	}
	return g[d*n+d], nil
}

// DistanceCompressedAbandon computes the banded DTW distance with the
// paper's compressed warping matrix (Algorithm 2): two rolling columns
// of 2ρ+2 band cells, sized to fit a GPU block's shared memory, with an
// early-abandoning cutoff. It is the package's only banded kernel; the
// full-matrix Distance is its reference.
//
// Every warping path visits every column of the warping matrix and
// path costs only grow along a path, so once the minimum over a
// column's band cells exceeds cutoff no path can finish at or below
// it. The function then abandons, reporting (+Inf, cols, nil) with cols
// the number of columns actually processed — callers charge cost
// models for work done, not work skipped. Abandonment fires only on a
// strictly greater column minimum, so candidates whose true distance
// equals the cutoff are fully computed. With cutoff = +Inf it never
// abandons and returns (distance, len(q), nil).
//
// scratch may be nil or a buffer from NewCompressedScratch (or
// GetCompressedScratch) to avoid per-call allocation.
func DistanceCompressedAbandon(q, c []float64, rho int, cutoff float64, scratch []float64) (float64, int, error) {
	d := len(q)
	if d == 0 || d != len(c) {
		return 0, 0, fmt.Errorf("%w: |q|=%d |c|=%d", ErrLength, len(q), len(c))
	}
	if rho < 0 {
		return 0, 0, fmt.Errorf("dtw: negative warping width %d", rho)
	}
	m := 2*rho + 2
	if len(scratch) < 2*m {
		scratch = make([]float64, 2*m)
	}
	inf := math.Inf(1)
	g := scratch[:2*m]
	for i := range g {
		g[i] = inf
	}
	// Cell (i, j) of column j lives at band offset k = i − (j − ρ), so
	// diag = γ(i−1, j−1) is prev[k], left = γ(i, j−1) is prev[k+1] and
	// up = γ(i−1, j) is the cell just computed. Column 0 holds only
	// γ(0,0) = 0 at offset ρ. Cells no column writes read as the
	// out-of-band +Inf: offset 2ρ+1, and for j ≥ 2 the row-1 diagonal
	// γ(0, j−1), which sits below every earlier column's band.
	prev, cur := g[:m], g[m:]
	prev[rho] = 0
	for j := 1; j <= d; j++ {
		klo, khi := 0, 2*rho // clamp the band to rows 1..d
		if lo := rho - j + 1; lo > klo {
			klo = lo
		}
		if hi := d - j + rho; hi < khi {
			khi = hi
		}
		i0 := j - rho - 1 + klo // q index of the first band row
		qs := q[i0 : i0+khi-klo+1]
		// Reslicing to len(qs) lets the compiler drop the inner loop's
		// bounds checks.
		ls := prev[klo+1 : khi+2][:len(qs)] // left neighbours
		cs := cur[klo : khi+1][:len(qs)]
		cj := c[j-1]
		up, diag, colMin := inf, prev[klo], inf
		for x, qi := range qs {
			left := ls[x]
			best := up
			if left < best {
				best = left
			}
			if diag < best {
				best = diag
			}
			v := dist(qi, cj) + best
			cs[x] = v
			up, diag = v, left
			if v < colMin {
				colMin = v
			}
		}
		if colMin > cutoff {
			return inf, j, nil
		}
		prev, cur = cur, prev
	}
	return prev[rho], d, nil
}

// CompressedScratchLen returns the scratch length
// DistanceCompressedAbandon needs for warping width rho.
func CompressedScratchLen(rho int) int { return 2 * (2*rho + 2) }

// NewCompressedScratch allocates a reusable scratch buffer for
// DistanceCompressedAbandon.
func NewCompressedScratch(rho int) []float64 {
	return make([]float64, CompressedScratchLen(rho))
}

// GetCompressedScratch is NewCompressedScratch backed by the memsys
// pool; return it with PutCompressedScratch when the verification
// batch is done.
func GetCompressedScratch(rho int) []float64 {
	return memsys.GetFloats(CompressedScratchLen(rho))
}

// PutCompressedScratch recycles a scratch from GetCompressedScratch.
func PutCompressedScratch(s []float64) { memsys.PutFloats(s) }

// Envelope holds the running upper and lower envelopes of a series
// under warping width rho (Definition B.1): U_i = max c_{i±ρ},
// L_i = min c_{i±ρ}, with indices clamped at the boundaries.
type Envelope struct {
	Upper, Lower []float64
}

// NewEnvelope computes the envelope of values with warping width rho
// by direct scan. O(n·ρ); fine for the short windows SMiLer indexes.
func NewEnvelope(values []float64, rho int) Envelope {
	n := len(values)
	u := make([]float64, n)
	l := make([]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := i-rho, i+rho
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		mx, mn := values[lo], values[lo]
		for j := lo + 1; j <= hi; j++ {
			if values[j] > mx {
				mx = values[j]
			}
			if values[j] < mn {
				mn = values[j]
			}
		}
		u[i] = mx
		l[i] = mn
	}
	return Envelope{Upper: u, Lower: l}
}

// Len returns the envelope length.
func (e Envelope) Len() int { return len(e.Upper) }

// LBKeogh returns LB_keogh(E, x): the squared deviation of each x_i
// outside the envelope band [L_i, U_i] (Eqn. 26). The envelope and x
// must have equal length.
func LBKeogh(e Envelope, x []float64) (float64, error) {
	if e.Len() != len(x) {
		return 0, fmt.Errorf("%w: envelope %d vs series %d", ErrLength, e.Len(), len(x))
	}
	var s float64
	for i, v := range x {
		if v > e.Upper[i] {
			s += dist(v, e.Upper[i])
		} else if v < e.Lower[i] {
			s += dist(v, e.Lower[i])
		}
	}
	return s, nil
}

// LBKim returns the O(1) first/last-point lower bound of banded DTW
// [Kim et al., as used by the UCR suite]: every warping path aligns
// q₀ with c₀ and q_{n−1} with c_{n−1}, so those two squared
// differences always contribute. It is the cheapest stage of the
// FastCPUScan pruning cascade.
func LBKim(q, c []float64) (float64, error) {
	n := len(q)
	if n == 0 || n != len(c) {
		return 0, fmt.Errorf("%w: |q|=%d |c|=%d", ErrLength, len(q), len(c))
	}
	if n == 1 {
		return dist(q[0], c[0]), nil
	}
	return dist(q[0], c[0]) + dist(q[n-1], c[n-1]), nil
}

// LBEQ computes LB_keogh(E(Q), C): the query-envelope bound.
func LBEQ(q, c []float64, rho int) (float64, error) {
	return LBKeogh(NewEnvelope(q, rho), c)
}

// LBEC computes LB_keogh(E(C), Q): the data-envelope bound.
func LBEC(q, c []float64, rho int) (float64, error) {
	return LBKeogh(NewEnvelope(c, rho), q)
}

// LBEn computes the paper's enhanced lower bound
// LBen(Q,C) = max(LBEQ(Q,C), LBEC(Q,C)) (Theorem 4.1).
func LBEn(q, c []float64, rho int) (float64, error) {
	a, err := LBEQ(q, c, rho)
	if err != nil {
		return 0, err
	}
	b, err := LBEC(q, c, rho)
	if err != nil {
		return 0, err
	}
	return math.Max(a, b), nil
}
