package index

import (
	"math"
	"math/rand"
	"testing"
)

// benchHistory is the fixed history BenchmarkSearch4096 searches: 4096
// points of the serving benchmark's sensor shape (a daily and a weekly
// sinusoid over AR(1) noise), followed by benchAdvance points the
// benchmark appends one per iteration.
const (
	benchHistory = 4096
	benchAdvance = 64
)

func benchSeries() []float64 {
	rng := rand.New(rand.NewSource(1))
	ph1, ph2 := 2*math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
	out := make([]float64, benchHistory+benchAdvance)
	prev := 0.0
	for i := range out {
		prev = 0.7*prev + 0.5*rng.NormFloat64()
		n := float64(i)
		out[i] = 25 + 5*math.Sin(2*math.Pi*n/24+ph1) + 2*math.Sin(2*math.Pi*n/168+ph2) + prev
	}
	return out
}

// BenchmarkSearch4096 measures one continuous-prediction Search step
// (k = 32, h = 1, paper-default ρ, ω and ELV) in exact and in anytime
// mode with no deadline. Between iterations the index advances by one
// point off the timer, and every benchAdvance iterations it is rebuilt
// from the 4096-point history, so iteration i always searches the same
// state and ns/op does not depend on b.N (run it with -benchtime set to
// a multiple of benchAdvance, e.g. 640x). Besides ns/op, B/op and
// allocs/op it reports the simulated device time of the whole search
// — every launch, including seed verification and selection —
// (sim-us/op) and the candidates verified (unfiltered/op).
func BenchmarkSearch4096(b *testing.B) {
	series := benchSeries()
	for _, mode := range []struct {
		name    string
		anytime bool
	}{{"exact", false}, {"anytime", true}} {
		b.Run(mode.name, func(b *testing.B) {
			dev := testDevice(b)
			var ix *Index
			build := func() {
				if ix != nil {
					ix.Close()
				}
				var err error
				ix, err = New(dev, series[:benchHistory], DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				ix.SetAnytime(Anytime{Enabled: mode.anytime})
			}
			build()
			defer func() { ix.Close() }()
			var simSec float64
			var unfiltered int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := dev.SimSeconds()
				if _, err := ix.Search(32, 1); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				simSec += dev.SimSeconds() - before
				unfiltered += ix.Stats().Unfiltered
				if j := (i + 1) % benchAdvance; j == 0 {
					build()
				} else if err := ix.Advance(series[benchHistory+j-1]); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(simSec*1e6/float64(b.N), "sim-us/op")
			b.ReportMetric(float64(unfiltered)/float64(b.N), "unfiltered/op")
		})
	}
}
