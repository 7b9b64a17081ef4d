package scan

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"smiler/internal/dtw"
	"smiler/internal/gpusim"
)

func testDevice(t testing.TB) *gpusim.Device {
	t.Helper()
	return gpusim.MustNewDevice(gpusim.DefaultConfig())
}

func randwalk(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	v := 0.0
	for i := range out {
		v += rng.NormFloat64() * 0.4
		out[i] = v
	}
	return out
}

func distsEqual(t *testing.T, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
			t.Fatalf("result %d: dist %v, want %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestValidateArgs(t *testing.T) {
	c := []float64{1, 2, 3}
	q := []float64{1, 2}
	if _, err := BruteKNN(c, nil, 1, 1, 1); err == nil {
		t.Fatal("empty query")
	}
	if _, err := BruteKNN(nil, q, 1, 1, 1); err == nil {
		t.Fatal("empty series")
	}
	if _, err := BruteKNN(c, q, 1, 0, 1); err == nil {
		t.Fatal("k=0")
	}
	if _, err := BruteKNN(c, q, 1, 1, 0); err == nil {
		t.Fatal("h=0")
	}
}

func TestBruteKNNTiny(t *testing.T) {
	// series 0..5; query = {4,5} (the suffix); h=1 restricts candidates
	// to t ≤ 6−2−1 = 3.
	c := []float64{0, 1, 2, 3, 4, 5}
	q := []float64{4, 5}
	res, err := BruteKNN(c, q, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].T != 3 { // segment {3,4} is nearest
		t.Fatalf("nearest at %d, want 3", res[0].T)
	}
	if res[0].Dist > res[1].Dist {
		t.Fatal("results unsorted")
	}
}

func TestBruteKNNNoCandidates(t *testing.T) {
	c := []float64{1, 2, 3}
	res, err := BruteKNN(c, []float64{1, 2, 3}, 1, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatal("expected no candidates")
	}
}

func TestFastGPUScanMatchesBrute(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(1))
	c := randwalk(rng, 600)
	q := c[len(c)-48:]
	want, err := BruteKNN(c, q, 6, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FastGPUScan(dev, c, q, 6, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	distsEqual(t, got, want)
}

func TestGPUScanUnbandedDominatesBanded(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(2))
	c := randwalk(rng, 400)
	q := c[len(c)-32:]
	banded, err := FastGPUScan(dev, c, q, 4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	unbanded, err := GPUScan(dev, c, q, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Unconstrained DTW distances are ≤ banded distances, so the
	// unbanded 1-NN distance cannot exceed the banded one.
	if unbanded[0].Dist > banded[0].Dist+1e-9 {
		t.Fatalf("unbanded 1-NN %v > banded %v", unbanded[0].Dist, banded[0].Dist)
	}
}

func TestGPUScanMatchesUnbandedBrute(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(3))
	c := randwalk(rng, 300)
	q := c[len(c)-24:]
	got, err := GPUScan(dev, c, q, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteKNN(c, q, len(q), 8, 1) // ρ = d ⇒ unconstrained
	if err != nil {
		t.Fatal(err)
	}
	distsEqual(t, got, want)
}

func TestFastCPUScanMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := randwalk(rng, 700)
	q := c[len(c)-64:]
	want, err := BruteKNN(c, q, 8, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := FastCPUScan(c, q, 8, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	distsEqual(t, got, want)
	if st.Candidates != len(c)-64-3+1 {
		t.Fatalf("candidate count %d wrong", st.Candidates)
	}
	pruned := st.PrunedByLBKim + st.PrunedByLBEQ + st.PrunedByLBEC + st.AbandonedEarly
	if pruned == 0 {
		t.Fatal("expected some pruning on a random walk")
	}
	if st.PrunedByLBKim+st.PrunedByLBEQ+st.PrunedByLBEC+st.AbandonedEarly+st.FullDTW != st.Candidates {
		t.Fatal("stats do not partition the candidates")
	}
}

func TestFastCPUScanNoCandidates(t *testing.T) {
	c := []float64{1, 2, 3, 4}
	res, st, err := FastCPUScan(c, []float64{1, 2, 3}, 1, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil || st.Candidates != 0 {
		t.Fatal("expected empty result")
	}
}

// Property: all scan variants agree with brute force on random inputs.
func TestQuickScansAgree(t *testing.T) {
	dev := testDevice(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 120 + rng.Intn(300)
		d := 8 + rng.Intn(40)
		rho := 1 + rng.Intn(8)
		k := 1 + rng.Intn(10)
		h := 1 + rng.Intn(5)
		c := randwalk(rng, n)
		q := c[len(c)-d:]
		want, err := BruteKNN(c, q, rho, k, h)
		if err != nil {
			return false
		}
		gpu, err := FastGPUScan(dev, c, q, rho, k, h)
		if err != nil {
			return false
		}
		cpu, _, err := FastCPUScan(c, q, rho, k, h)
		if err != nil {
			return false
		}
		if len(gpu) != len(want) || len(cpu) != len(want) {
			return false
		}
		for i := range want {
			if math.Abs(gpu[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
				return false
			}
			if math.Abs(cpu[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDirLBenIsLowerBound(t *testing.T) {
	dev := testDevice(t)
	rng := rand.New(rand.NewSource(5))
	c := randwalk(rng, 400)
	elv := []int{16, 24, 40}
	const rho, h = 3, 2
	bounds, st, err := DirLBen(dev, c, elv, rho, h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bounds == 0 || st.SimSeconds <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	for i, d := range elv {
		q := c[len(c)-d:]
		for tpos, lb := range bounds[i] {
			dist, err := dtw.Distance(q, c[tpos:tpos+d], rho)
			if err != nil {
				t.Fatal(err)
			}
			if lb > dist+1e-9*(1+dist) {
				t.Fatalf("d=%d t=%d: LBen %v > DTW %v", d, tpos, lb, dist)
			}
		}
	}
}

func TestDirLBenErrors(t *testing.T) {
	dev := testDevice(t)
	if _, _, err := DirLBen(dev, []float64{1, 2}, nil, 1, 1); err == nil {
		t.Fatal("empty ELV should fail")
	}
	if _, _, err := DirLBen(dev, []float64{1, 2}, []int{10}, 1, 1); err == nil {
		t.Fatal("short series should fail")
	}
}

func BenchmarkFastCPUScan(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	c := randwalk(rng, 4000)
	q := c[len(c)-64:]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := FastCPUScan(c, q, 8, 32, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFastGPUScan(b *testing.B) {
	dev := testDevice(b)
	rng := rand.New(rand.NewSource(7))
	c := randwalk(rng, 4000)
	q := c[len(c)-64:]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FastGPUScan(dev, c, q, 8, 32, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParallelCPUScanMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := randwalk(rng, 900)
	q := c[len(c)-48:]
	want, err := BruteKNN(c, q, 6, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3, 7} {
		got, err := ParallelCPUScan(c, q, 6, 10, 2, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		distsEqual(t, got, want)
	}
	if _, err := ParallelCPUScan(nil, q, 6, 10, 2, 2); err == nil {
		t.Fatal("empty series should fail")
	}
	// No candidates.
	res, err := ParallelCPUScan([]float64{1, 2, 3}, []float64{1, 2, 3}, 1, 2, 9, 2)
	if err != nil || res != nil {
		t.Fatalf("expected empty result, got %v err=%v", res, err)
	}
}

// Property: sharded and single-threaded scans agree on random inputs.
func TestQuickParallelScanAgrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 150 + rng.Intn(300)
		d := 8 + rng.Intn(30)
		c := randwalk(rng, n)
		q := c[len(c)-d:]
		k := 1 + rng.Intn(8)
		h := 1 + rng.Intn(4)
		workers := 1 + rng.Intn(6)
		want, _, err := FastCPUScan(c, q, 4, k, h)
		if err != nil {
			return false
		}
		got, err := ParallelCPUScan(c, q, 4, k, h, workers)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// fastCPUScanParity pins FastCPUScan's output and pruning counters on
// fixed seeded corpora. The hashes and counters were recorded from the
// row-major early-abandon kernel the scan used before it moved onto
// dtw.DistanceCompressedAbandon; the swap must not move any of them.
var fastCPUScanParity = []struct {
	seed            int64
	n, d, rho, k, h int
	ownQuery        bool // query is the corpus tail, else a fresh walk
	results         int
	hash            uint64 // FNV-64a over "T:dist-bits;" per result
	stats           CPUScanStats
}{
	{101, 3000, 32, 3, 8, 1, true, 8, 0x87ef3b6903c949d4, CPUScanStats{Candidates: 2968, PrunedByLBKim: 1922, PrunedByLBEQ: 883, PrunedByLBEC: 9, AbandonedEarly: 66, FullDTW: 88}},
	{102, 3000, 64, 6, 16, 4, true, 16, 0xe6b3637ece8e7c1a, CPUScanStats{Candidates: 2933, PrunedByLBKim: 0, PrunedByLBEQ: 1558, PrunedByLBEC: 87, AbandonedEarly: 406, FullDTW: 882}},
	{103, 4000, 96, 9, 32, 1, false, 32, 0x7eeda0e07c47f3fe, CPUScanStats{Candidates: 3904, PrunedByLBKim: 1449, PrunedByLBEQ: 2201, PrunedByLBEC: 4, AbandonedEarly: 176, FullDTW: 74}},
	{104, 2000, 48, 0, 4, 2, false, 4, 0x2de33c2a3a0a56cb, CPUScanStats{Candidates: 1951, PrunedByLBKim: 1666, PrunedByLBEQ: 266, PrunedByLBEC: 0, AbandonedEarly: 0, FullDTW: 19}},
	{105, 1500, 24, 30, 10, 1, true, 10, 0x7e1dd10d75563960, CPUScanStats{Candidates: 1476, PrunedByLBKim: 339, PrunedByLBEQ: 653, PrunedByLBEC: 18, AbandonedEarly: 157, FullDTW: 309}},
	{106, 2500, 128, 12, 64, 8, false, 64, 0xcf2b5d1f854773f5, CPUScanStats{Candidates: 2365, PrunedByLBKim: 22, PrunedByLBEQ: 1719, PrunedByLBEC: 16, AbandonedEarly: 207, FullDTW: 401}},
}

func parityInputs(seed int64, n, d int, ownQuery bool) (c, q []float64) {
	rng := rand.New(rand.NewSource(seed))
	c = randwalk(rng, n)
	q = c[len(c)-d:]
	if !ownQuery {
		q = randwalk(rng, d)
	}
	return c, q
}

func TestFastCPUScanParity(t *testing.T) {
	for _, tc := range fastCPUScanParity {
		c, q := parityInputs(tc.seed, tc.n, tc.d, tc.ownQuery)
		res, st, err := FastCPUScan(c, q, tc.rho, tc.k, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		hs := fnv.New64a()
		for _, r := range res {
			fmt.Fprintf(hs, "%d:%x;", r.T, math.Float64bits(r.Dist))
		}
		if len(res) != tc.results || hs.Sum64() != tc.hash {
			t.Errorf("seed %d: %d results hash %#x, want %d hash %#x", tc.seed, len(res), hs.Sum64(), tc.results, tc.hash)
		}
		if st != tc.stats {
			t.Errorf("seed %d: stats %+v, want %+v", tc.seed, st, tc.stats)
		}
	}
}

// TestFastCPUScanAllocsPerCall: the DTW stage reuses one pooled
// scratch for the whole scan, so allocations stay a small constant
// (envelopes and the top-k slice) however many candidates reach DTW.
func TestFastCPUScanAllocsPerCall(t *testing.T) {
	tc := fastCPUScanParity[1] // 1,288 candidates reach DTW
	c, q := parityInputs(tc.seed, tc.n, tc.d, tc.ownQuery)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := FastCPUScan(c, q, tc.rho, tc.k, tc.h); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per scan", allocs)
	if allocs > 16 {
		t.Fatalf("%.0f allocs per scan; the DTW stage allocates per candidate again", allocs)
	}
}
