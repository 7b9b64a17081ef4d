package bench

import (
	"fmt"
	"math"
	"sort"

	"smiler/internal/dtw"
	"smiler/internal/gpusim"
	"smiler/internal/metrics"
	"smiler/internal/tsdist"
)

func defaultDeviceBytes() int64 { return gpusim.DefaultConfig().GlobalMemBytes }

// DistanceRow is one row of the distance-measure ablation: kNN
// prediction accuracy under one similarity measure.
type DistanceRow struct {
	Dataset string
	Measure string
	MAE     float64
	Samples int
}

// RunDistanceMeasureAblation reproduces the paper's motivating claim
// for DTW (Section 4, citing [30, 54, 60]): kNN prediction under
// banded DTW should match or beat the alternative measures (Euclidean,
// LCSS, ERP, EDR) on sensor data. For each measure it runs a kNN
// regression (inverse-distance weighting) with the same k, d and h
// over `steps` continuous steps.
func RunDistanceMeasureAblation(c *Corpus, steps, k, d, h int) ([]DistanceRow, error) {
	if steps <= 0 || k <= 0 || d <= 0 || h <= 0 {
		return nil, fmt.Errorf("bench: invalid ablation args steps=%d k=%d d=%d h=%d", steps, k, d, h)
	}
	const rho = 8
	scratch := dtw.NewCompressedScratch(rho)
	measures := []struct {
		name string
		fn   tsdist.Func
	}{
		{"DTW", func(q, cc []float64) (float64, error) {
			dist, _, err := dtw.DistanceCompressedAbandon(q, cc, rho, math.Inf(1), scratch)
			return dist, err
		}},
		{"Euclidean", tsdist.EuclideanFunc()},
		{"LCSS", tsdist.LCSSFunc(0.5, rho)},
		{"ERP", tsdist.ERPFunc(0)},
		{"EDR", tsdist.EDRFunc(0.25)},
	}
	var rows []DistanceRow
	for _, m := range measures {
		var acc metrics.Accumulator
		for si, z := range c.Series {
			n := c.TestLen(z, h)
			if n > steps {
				n = steps
			}
			for t := 0; t < n; t++ {
				now := c.Spec.Warm + t
				hist := z[:now]
				pred, err := knnRegress(hist, d, k, h, m.fn)
				if err != nil {
					return nil, fmt.Errorf("bench: %s sensor %d: %w", m.name, si, err)
				}
				acc.Add(pred, z[now-1+h])
			}
		}
		mae, err := acc.MAE()
		if err != nil {
			return nil, err
		}
		rows = append(rows, DistanceRow{
			Dataset: c.Spec.Name, Measure: m.name, MAE: mae, Samples: acc.N(),
		})
	}
	return rows, nil
}

// knnRegress is a plain inverse-distance-weighted kNN regression under
// an arbitrary measure (no index — the ablation compares measures, not
// search speed).
func knnRegress(hist []float64, d, k, h int, fn tsdist.Func) (float64, error) {
	maxT := len(hist) - d - h
	if maxT < 0 {
		return 0, fmt.Errorf("history too short for d=%d h=%d", d, h)
	}
	query := hist[len(hist)-d:]
	type cand struct {
		dist  float64
		label float64
	}
	cands := make([]cand, 0, maxT+1)
	for t := 0; t <= maxT; t++ {
		dist, err := fn(query, hist[t:t+d])
		if err != nil {
			return 0, err
		}
		cands = append(cands, cand{dist: dist, label: hist[t+d-1+h]})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	if len(cands) > k {
		cands = cands[:k]
	}
	const eps = 1e-6
	var wsum, mean float64
	for _, cd := range cands {
		w := 1 / (math.Sqrt(cd.dist) + eps)
		wsum += w
		mean += w * cd.label
	}
	return mean / wsum, nil
}

// FormatDistanceAblation renders the rows.
func FormatDistanceAblation(rows []DistanceRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Dataset, r.Measure, f3(r.MAE), fmt.Sprint(r.Samples)})
	}
	return "Ablation — kNN prediction accuracy by similarity measure\n" +
		table([]string{"dataset", "measure", "MAE", "samples"}, out)
}

// DownsampleRow is one point of the space/accuracy trade-off of
// Section 6.4.1: index only a fraction of the history and measure both
// the capacity gain and the accuracy cost.
type DownsampleRow struct {
	Dataset        string
	Fraction       float64 // of the warm history retained
	PerSensorBytes int64
	MaxSensors     int64
	MAE            float64
}

// RunDownsampleTradeoff evaluates SMiLer-AR at h=1 with progressively
// truncated histories, reporting per-sensor footprint, fleet capacity
// on the default device and prediction MAE.
func RunDownsampleTradeoff(c *Corpus, fractions []float64, steps int) ([]DownsampleRow, error) {
	if len(fractions) == 0 {
		return nil, fmt.Errorf("bench: empty fraction list")
	}
	if steps <= 0 {
		return nil, fmt.Errorf("bench: steps %d must be positive", steps)
	}
	p := searchParams()
	dmax := p.ELV[len(p.ELV)-1]
	var rows []DownsampleRow
	for _, frac := range fractions {
		if frac <= 0 || frac > 1 {
			return nil, fmt.Errorf("bench: fraction %v out of (0,1]", frac)
		}
		warm := int(float64(c.Spec.Warm) * frac)
		if warm < dmax+p.Omega {
			warm = dmax + p.Omega
		}
		sub := &Corpus{Spec: c.Spec, Series: nil, IDs: c.IDs}
		sub.Spec.Warm = warm
		for _, z := range c.Series {
			// Drop the oldest points so the test stream is unchanged.
			trimmed := z[c.Spec.Warm-warm:]
			sub.Series = append(sub.Series, trimmed)
		}
		sub.Spec.TestSteps = steps
		accs, _, _, err := runSMiLer(sub, MSMiLerAR, []int{1})
		if err != nil {
			return nil, err
		}
		mae, err := accs[1].MAE()
		if err != nil {
			return nil, err
		}
		n := len(sub.Series[0])
		nSW := dmax - p.Omega + 1
		nDW := n / p.Omega
		per := int64(8 * (n + 2*nSW*nDW))
		dev := defaultDeviceBytes()
		rows = append(rows, DownsampleRow{
			Dataset: c.Spec.Name, Fraction: frac,
			PerSensorBytes: per, MaxSensors: dev / per, MAE: mae,
		})
	}
	return rows, nil
}

// FormatDownsample renders the trade-off rows.
func FormatDownsample(rows []DownsampleRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset, fmt.Sprintf("%.0f%%", r.Fraction*100),
			fmt.Sprint(r.PerSensorBytes), fmt.Sprint(r.MaxSensors), f3(r.MAE),
		})
	}
	return "Section 6.4.1 — history downsampling: capacity vs accuracy\n" +
		table([]string{"dataset", "history", "bytes/sensor", "max sensors", "MAE(h=1)"}, out)
}
