package index

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"smiler/internal/scan"
)

// countdownCtx is a context whose Err() starts returning
// context.DeadlineExceeded after it has been called n times. Deadline
// checks in the search path are the only Err() callers, so the budget
// deterministically stages "the deadline fires after the N-th check" —
// no wall-clock flakiness.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdown(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return c.Context.Err()
}

// noise returns a white-noise history. Unlike a random walk its
// group-level lower bounds are loose, so most candidates survive the
// filter and verification spans several progressive rounds — the
// workload anytime search exists for.
func noise(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func sameNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// With no deadline, exact search and anytime search must agree bit for
// bit across a stream of Search, SearchMulti and SearchRange calls, and
// both must match the brute-force scan — with early abandon on and off.
func TestAnytimeNoDeadlineBitIdentical(t *testing.T) {
	for _, abandon := range []bool{true, false} {
		rng := rand.New(rand.NewSource(7))
		hist := randwalk(rng, 420)
		p := smallParams()
		p.DisableEarlyAbandon = !abandon
		exact, err := New(testDevice(t), hist, p)
		if err != nil {
			t.Fatal(err)
		}
		anyIx, err := New(testDevice(t), hist, p)
		if err != nil {
			t.Fatal(err)
		}
		anyIx.SetAnytime(Anytime{Enabled: true})

		const k, h = 5, 3
		for step := 0; step < 12; step++ {
			c := exact.History()
			re, err := exact.Search(k, h)
			if err != nil {
				t.Fatal(err)
			}
			ra, err := anyIx.Search(k, h)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range p.ELV {
				if !sameNeighbors(re[i].Neighbors, ra[i].Neighbors) {
					t.Fatalf("abandon=%v step %d item %d: anytime %v != exact %v", abandon, step, i, ra[i].Neighbors, re[i].Neighbors)
				}
				want, err := scan.BruteKNN(c, c[len(c)-d:], p.Rho, k, h)
				if err != nil {
					t.Fatal(err)
				}
				neighborsMatch(t, re[i].Neighbors, want)
			}
			st := anyIx.Stats()
			if st.Progressive {
				t.Fatalf("step %d: no deadline but stats marked progressive", step)
			}
			if st.ProbExact != 1 || st.FracVerified != 1 || st.LBGap != 0 {
				t.Fatalf("step %d: exact run quality = %+v", step, st)
			}
			if st.Rounds == 0 && st.Candidates > k*len(p.ELV) {
				t.Fatalf("step %d: anytime search ran zero rounds", step)
			}
			if es := exact.Stats(); es.Unfiltered != st.Unfiltered || es.Progressive {
				t.Fatalf("step %d: exact stats %+v vs anytime %+v", step, es, st)
			}

			hs := []int{h, h + 2}
			me, err := exact.SearchMulti(k, hs)
			if err != nil {
				t.Fatal(err)
			}
			ma, err := anyIx.SearchMulti(k, hs)
			if err != nil {
				t.Fatal(err)
			}
			for _, hh := range hs {
				for i, d := range p.ELV {
					if !sameNeighbors(me[hh][i].Neighbors, ma[hh][i].Neighbors) {
						t.Fatalf("abandon=%v step %d multi h=%d item %d mismatch", abandon, step, hh, i)
					}
					want, err := scan.BruteKNN(c, c[len(c)-d:], p.Rho, k, hh)
					if err != nil {
						t.Fatal(err)
					}
					neighborsMatch(t, me[hh][i].Neighbors, want)
				}
			}

			eps := re[0].Neighbors[len(re[0].Neighbors)-1].Dist * 1.5
			ge, err := exact.SearchRange(eps, h)
			if err != nil {
				t.Fatal(err)
			}
			ga, err := anyIx.SearchRange(eps, h)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ge {
				if !sameNeighbors(ge[i].Neighbors, ga[i].Neighbors) {
					t.Fatalf("abandon=%v step %d range item %d mismatch", abandon, step, i)
				}
			}

			obs := c[len(c)-1] + rng.NormFloat64()*0.3
			if err := exact.Advance(obs); err != nil {
				t.Fatal(err)
			}
			if err := anyIx.Advance(obs); err != nil {
				t.Fatal(err)
			}
		}
		exact.Close()
		anyIx.Close()
	}
}

// Exact Search runs the shared engine's one-round schedule; its
// steady-state allocations are bounded (result and prevNN slices, seed
// lists and the launch closures), with the distance rows, bound rows
// and survivor lists recycled through memsys. It measures 182 allocs/op
// on this input; the guard leaves a little headroom.
const allocGuardExactSearch = 190

func TestExactSearchAllocs(t *testing.T) {
	old := runtime.GOMAXPROCS(2) // launch workers (one goroutine each) bind at NewDevice
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(23))
	ix, err := New(testDevice(t), noise(rng, 2000), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	const k, h = 16, 1
	if _, err := ix.Search(k, h); err != nil { // prevNN seeds, pool warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ix.Search(k, h); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("exact Search: %.0f allocs/op", allocs)
	if allocs > allocGuardExactSearch {
		t.Fatalf("exact Search: %.0f allocs/op, guard %d", allocs, allocGuardExactSearch)
	}
}

// Property test: under a staged deadline the progressive result for
// each item query is a valid best-so-far set — every returned neighbour
// carries its exact DTW distance, per-rank distances dominate the exact
// kNN set's (prog[i].Dist ≥ exact[i].Dist), any neighbour shared with
// the exact set has a bit-identical distance, and a run whose stats say
// "not progressive" (deadline never fired, or search sealed early) is
// exactly the exact set. Quality numbers must be sane, and a generous
// deadline must converge to exact.
func TestProgressiveStagedDeadlines(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hist := noise(rng, 900)
	p := smallParams()
	exact, err := New(testDevice(t), hist, p)
	if err != nil {
		t.Fatal(err)
	}
	anyIx, err := New(testDevice(t), hist, p)
	if err != nil {
		t.Fatal(err)
	}
	anyIx.SetAnytime(Anytime{Enabled: true})

	const k, h = 5, 3
	re, err := exact.Search(k, h)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the anytime index too (no deadline) so both sides have the
	// same prevNN seeds going into the staged runs.
	if _, err := anyIx.Search(k, h); err != nil {
		t.Fatal(err)
	}

	sawProgressive := false
	for n := int64(0); n <= 24; n++ {
		ra, err := anyIx.SearchCtx(newCountdown(n), k, h)
		if err != nil {
			// The deadline fired during the lower-bound pass: that phase
			// has no best-so-far set, so erroring out is the contract.
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("budget %d: unexpected error %v", n, err)
			}
			continue
		}
		st := anyIx.Stats()
		if st.Progressive {
			sawProgressive = true
		}
		if st.FracVerified < 0 || st.FracVerified > 1 || st.LBGap < 0 || st.LBGap > 1 || st.ProbExact < 0 || st.ProbExact > 1 {
			t.Fatalf("budget %d: quality out of range %+v", n, st)
		}
		for i := range re {
			ep := re[i].Neighbors
			pp := ra[i].Neighbors
			if !st.Progressive {
				if !sameNeighbors(ep, pp) {
					t.Fatalf("budget %d item %d: non-progressive result differs from exact", n, i)
				}
				continue
			}
			exactDist := make(map[int]float64, len(ep))
			for _, nb := range ep {
				exactDist[nb.T] = nb.Dist
			}
			for r, nb := range pp {
				if r < len(ep) && nb.Dist < ep[r].Dist {
					t.Fatalf("budget %d item %d rank %d: progressive dist %v beats exact %v", n, i, r, nb.Dist, ep[r].Dist)
				}
				if d, ok := exactDist[nb.T]; ok && d != nb.Dist {
					t.Fatalf("budget %d item %d T=%d: dist %v != exact %v", n, i, nb.T, nb.Dist, d)
				}
				if r > 0 && nb.Dist < pp[r-1].Dist {
					t.Fatalf("budget %d item %d: progressive set not sorted", n, i)
				}
			}
		}
	}
	if !sawProgressive {
		t.Fatal("no staged budget produced a progressive result")
	}

	// A huge budget never hits the deadline: bit-identical to exact.
	ra, err := anyIx.SearchCtx(newCountdown(1<<30), k, h)
	if err != nil {
		t.Fatal(err)
	}
	if anyIx.Stats().Progressive {
		t.Fatal("unlimited budget still marked progressive")
	}
	for i := range re {
		if !sameNeighbors(re[i].Neighbors, ra[i].Neighbors) {
			t.Fatalf("unlimited budget item %d differs from exact", i)
		}
	}
}

// Progressive SearchRange under a staged deadline returns a subset of
// the exact in-range set with bit-identical distances.
func TestProgressiveRangeSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	hist := randwalk(rng, 500)
	p := smallParams()
	exact, err := New(testDevice(t), hist, p)
	if err != nil {
		t.Fatal(err)
	}
	anyIx, err := New(testDevice(t), hist, p)
	if err != nil {
		t.Fatal(err)
	}
	anyIx.SetAnytime(Anytime{Enabled: true})

	const h = 3
	re, err := exact.Search(5, h)
	if err != nil {
		t.Fatal(err)
	}
	eps := re[0].Neighbors[len(re[0].Neighbors)-1].Dist * 2
	ge, err := exact.SearchRange(eps, h)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(0); n <= 16; n++ {
		ga, err := anyIx.SearchRangeCtx(newCountdown(n), eps, h)
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("budget %d: unexpected error %v", n, err)
			}
			continue
		}
		for i := range ge {
			exactDist := make(map[int]float64, len(ge[i].Neighbors))
			for _, nb := range ge[i].Neighbors {
				exactDist[nb.T] = nb.Dist
			}
			for _, nb := range ga[i].Neighbors {
				d, ok := exactDist[nb.T]
				if !ok {
					t.Fatalf("budget %d item %d: progressive returned T=%d outside exact range set", n, i, nb.T)
				}
				if d != nb.Dist {
					t.Fatalf("budget %d item %d T=%d: dist %v != exact %v", n, i, nb.T, nb.Dist, d)
				}
			}
			if !anyIx.Stats().Progressive && len(ga[i].Neighbors) != len(ge[i].Neighbors) {
				t.Fatalf("budget %d item %d: non-progressive range result incomplete", n, i)
			}
		}
	}
}

// Satellite regression: in EXACT mode the deadline check happens at
// verify-task (chunk) granularity, so an expired deadline aborts the
// fused launch after a bounded number of chunks instead of running the
// whole verification phase. The countdown budget lets exactly 4 chunk
// checks pass; the simulated device time of the aborted search must be
// well under half of the full search on the same index.
func TestExactDeadlineChunkGranularity(t *testing.T) {
	old := runtime.GOMAXPROCS(2) // bound in-flight blocks; workers bind at NewDevice
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(17))
	p := smallParams()
	p.DisableEarlyAbandon = true // uniform chunk cost: the sim-time ratio is deterministic
	hist := noise(rng, 4200)
	dev := testDevice(t)
	ix, err := New(dev, hist, p)
	if err != nil {
		t.Fatal(err)
	}

	const k, h = 5, 3
	// Budget: omega checks in the lower-bound kernel, then 4 verify-chunk
	// checks succeed before the deadline trips the rest of the grid.
	budget := int64(p.Omega) + 4
	before := dev.SimSeconds()
	_, err = ix.SearchCtx(newCountdown(budget), k, h)
	aborted := dev.SimSeconds() - before
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected deadline error, got %v", err)
	}

	before = dev.SimSeconds()
	if _, err := ix.Search(k, h); err != nil {
		t.Fatal(err)
	}
	full := dev.SimSeconds() - before
	if aborted >= full/2 {
		t.Fatalf("aborted search cost %.3gs ≥ half of full %.3gs: deadline not chunk-granular", aborted, full)
	}
}
