package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// decodeSeries turns fuzz bytes into two equal-length series plus a
// warping width; returns ok=false for unusable inputs.
func decodeSeries(data []byte) (q, c []float64, rho int, ok bool) {
	if len(data) < 5 {
		return nil, nil, 0, false
	}
	rho = int(data[0] % 10)
	rest := data[1:]
	n := len(rest) / 2
	if n == 0 || n > 64 {
		return nil, nil, 0, false
	}
	q = make([]float64, n)
	c = make([]float64, n)
	for i := 0; i < n; i++ {
		q[i] = (float64(rest[i]) - 128) / 16
		c[i] = (float64(rest[n+i]) - 128) / 16
	}
	return q, c, rho, true
}

// referenceAbandon is the full-matrix statement of the kernel's
// contract: fill the (d+1)² banded DTW matrix column by column and, as
// soon as a column's band minimum is strictly above cutoff, report
// (+Inf, columns processed); otherwise (γ(d,d), d).
func referenceAbandon(q, c []float64, rho int, cutoff float64) (float64, int) {
	d := len(q)
	inf := math.Inf(1)
	g := make([][]float64, d+1)
	for i := range g {
		g[i] = make([]float64, d+1)
		for j := range g[i] {
			g[i][j] = inf
		}
	}
	g[0][0] = 0
	for j := 1; j <= d; j++ {
		colMin := inf
		for i := max(1, j-rho); i <= min(d, j+rho); i++ {
			g[i][j] = dist(q[i-1], c[j-1]) + math.Min(g[i-1][j], math.Min(g[i][j-1], g[i-1][j-1]))
			colMin = math.Min(colMin, g[i][j])
		}
		if colMin > cutoff {
			return inf, j
		}
	}
	return g[d][d], d
}

// checkAbandon asserts the kernel matches referenceAbandon in value
// bits and processed-column count, and returns the reference value.
func checkAbandon(t *testing.T, q, c []float64, rho int, cutoff float64, scratch []float64) float64 {
	t.Helper()
	want, wantCols := referenceAbandon(q, c, rho, cutoff)
	got, cols, err := DistanceCompressedAbandon(q, c, rho, cutoff, scratch)
	if err != nil {
		t.Fatalf("kernel errored on valid input: %v", err)
	}
	if math.Float64bits(got) != math.Float64bits(want) || cols != wantCols {
		t.Fatalf("n=%d ρ=%d cutoff=%v: kernel (%v, %d cols) != reference (%v, %d cols)",
			len(q), rho, cutoff, got, cols, want, wantCols)
	}
	return want
}

// FuzzAbandonMatchesReference proves the finite-cutoff abandon path:
// the first byte picks the cutoff (0 → +Inf, 1 → an exact tie with
// the true distance, otherwise that byte/128 times the true distance)
// and the rest decodes to the series.
func FuzzAbandonMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 10, 20, 30, 40, 50, 60})
	f.Add([]byte{1, 4, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{64, 9, 255, 0, 255, 0, 128, 128, 64, 192})
	f.Add([]byte{200, 2, 5, 10, 15, 20, 25, 30, 35})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			t.Skip()
		}
		q, c, rho, ok := decodeSeries(data[1:])
		if !ok {
			t.Skip()
		}
		truth, _ := referenceAbandon(q, c, rho, math.Inf(1))
		cutoff := truth * float64(data[0]) / 128
		switch data[0] {
		case 0:
			cutoff = math.Inf(1)
		case 1:
			cutoff = truth
		}
		checkAbandon(t, q, c, rho, cutoff, nil)
	})
}

// TestAbandonMatchesReferenceTable runs the fuzz contract on a fixed
// seeded table so tier-1 covers it without -fuzz: 12k cases over
// n ≤ 130 and ρ < 20 (so n ≤ ρ occurs), with cutoffs +Inf, an exact
// tie, the largest float below the tie, zero and random fractions and
// multiples of the true distance. A third of the cases round the
// series to integers, which makes tied cells common.
func TestAbandonMatchesReferenceTable(t *testing.T) {
	rng := rand.New(rand.NewSource(2015))
	inf := math.Inf(1)
	abandoned, small := 0, 0
	for trial := 0; trial < 12000; trial++ {
		n := 1 + rng.Intn(130)
		rho := rng.Intn(20)
		q := randSeries(rng, n)
		c := randSeries(rng, n)
		if trial%3 == 0 {
			for i := range q {
				q[i], c[i] = math.Round(q[i]), math.Round(c[i])
			}
		}
		if n <= rho {
			small++
		}
		truth, _ := referenceAbandon(q, c, rho, inf)
		var cutoff float64
		switch trial % 6 {
		case 0:
			cutoff = inf
		case 1:
			cutoff = truth
		case 2:
			cutoff = math.Nextafter(truth, 0)
		case 3:
			cutoff = 0
		case 4:
			cutoff = truth * rng.Float64()
		default:
			cutoff = truth * (1 + rng.Float64())
		}
		scratch := NewCompressedScratch(rho)
		if trial%2 == 0 {
			scratch = nil
		}
		if math.IsInf(checkAbandon(t, q, c, rho, cutoff, scratch), 1) {
			abandoned++
		}
	}
	if abandoned == 0 || small == 0 {
		t.Fatalf("table lost coverage: %d abandoning cases, %d with n ≤ ρ", abandoned, small)
	}
}

// FuzzCompressedMatchesReference cross-checks the shared-memory
// compressed warping matrix, run with no cutoff, against the
// full-matrix reference on arbitrary inputs, bit for bit.
func FuzzCompressedMatchesReference(f *testing.F) {
	f.Add([]byte{3, 10, 20, 30, 40, 50, 60})
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{9, 255, 0, 255, 0, 128, 128, 64, 192})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, c, rho, ok := decodeSeries(data)
		if !ok {
			t.Skip()
		}
		want, err := Distance(q, c, rho)
		if err != nil {
			t.Skip()
		}
		got, cols, err := DistanceCompressedAbandon(q, c, rho, math.Inf(1), nil)
		if err != nil {
			t.Fatalf("compressed errored where reference succeeded: %v", err)
		}
		if math.Float64bits(got) != math.Float64bits(want) || cols != len(q) {
			t.Fatalf("compressed %v (%d cols) != reference %v (ρ=%d, n=%d)", got, cols, want, rho, len(q))
		}
	})
}

// FuzzLowerBoundsNeverExceedDTW asserts Theorem 4.1 on arbitrary
// inputs: LBEQ, LBEC and LBen are all ≤ the true banded distance.
func FuzzLowerBoundsNeverExceedDTW(f *testing.F) {
	f.Add([]byte{2, 5, 10, 15, 20, 25, 30, 35})
	f.Add([]byte{7, 200, 100, 50, 25, 12, 6, 3, 1, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, c, rho, ok := decodeSeries(data)
		if !ok {
			t.Skip()
		}
		d, err := Distance(q, c, rho)
		if err != nil {
			t.Skip()
		}
		eps := 1e-9 * (1 + d)
		for name, fn := range map[string]func(a, b []float64, r int) (float64, error){
			"LBEQ": LBEQ, "LBEC": LBEC, "LBEn": LBEn,
		} {
			lb, err := fn(q, c, rho)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if lb > d+eps {
				t.Fatalf("%s = %v exceeds DTW = %v", name, lb, d)
			}
		}
	})
}

// FuzzEarlyAbandonConsistent asserts the kernel with swapped operands
// — the orientation FastCPUScan uses, whose columns walk the query —
// completes under a cutoff above the true distance and reports exactly
// the reference distance (DTW under the squared cost is symmetric).
func FuzzEarlyAbandonConsistent(f *testing.F) {
	f.Add([]byte{4, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, c, rho, ok := decodeSeries(data)
		if !ok {
			t.Skip()
		}
		want, err := Distance(q, c, rho)
		if err != nil {
			t.Skip()
		}
		got, cols, err := DistanceCompressedAbandon(c, q, rho, want+1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cols != len(q) || math.IsInf(got, 1) {
			t.Fatalf("abandoned after %d cols despite a cutoff above the true distance", cols)
		}
		if got != want {
			t.Fatalf("early-abandon %v != reference %v", got, want)
		}
	})
}
