package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"smiler"
	"smiler/internal/core"
	"smiler/internal/gp"
	"smiler/internal/gpusim"
	"smiler/internal/index"
	"smiler/internal/mat"
	"smiler/internal/memsys"
	"smiler/internal/timeseries"
)

// The traced run replays a workload's op stream sequentially and
// in-process through four stacks, timing each call into a layer's
// public entry point from outside the program:
//
//	A: server handler (ServeHTTP; observes include the pipeline drain)
//	B: ingest.Pipeline → smiler.System (wrapped) and wal.Manager (journal hook)
//	C: core.Pipeline over its own index (plus Timing/LastObserveTiming)
//	D: index.Index, then gp.Column fits and dtw on the returned kNN sets
//
// Every stack starts from the same registrations and sees the same ops,
// so a span of one stack has its logical parent in the stack above for
// the same op id. Each op runs through all four stacks before the next
// one, so the spans of one op are taken moments apart. Stacks C and D
// see only the forecasts that reached smiler.System in stack B (the
// cache misses), exactly the calls the layer above them made.

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for none
	Op     int    `json:"op_id"`
}

func (s span) dur() int64 { return s.End - s.Start }

// parentOf names each span's parent layer for the same op.
var parentOf = map[string]string{
	"ingest.observe":  "server.observe",
	"ingest.forecast": "server.forecast",
	"smiler.observe":  "ingest.observe",
	"wal.append":      "ingest.observe",
	"smiler.predict":  "ingest.forecast",
	"core.observe":    "smiler.observe",
	"core.predict":    "smiler.predict",
	"index.advance":   "core.observe",
	"index.search":    "core.predict",
	"gp.column_fit":   "core.predict",
}

// linkParents sets every span's Parent to the span of its parent layer
// with the same op id (-1 when there is none).
func linkParents(spans []span) {
	type key struct {
		name string
		op   int
	}
	at := make(map[key]int, len(spans))
	for i, s := range spans {
		if _, dup := at[key{s.Name, s.Op}]; !dup {
			at[key{s.Name, s.Op}] = i
		}
	}
	for i := range spans {
		spans[i].Parent = -1
		if p, ok := parentOf[spans[i].Name]; ok {
			if j, ok := at[key{p, spans[i].Op}]; ok {
				spans[i].Parent = j
			}
		}
	}
}

// selfTimes returns each span's self time: its duration minus the
// durations of its child spans. Children from another stack ran at
// another moment, so their durations, not their intervals, are what is
// subtracted; for a layer thinner than that noise one op's self time
// can come out negative, and it is kept so that the median over ops
// stays unbiased.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// recorder keeps spans in memory until the replay ends.
type recorder struct {
	t0    time.Time
	on    bool
	op    atomic.Int64 // op id of the call in progress (read by shard workers)
	spans []span
}

func (r *recorder) add(name string, op int, start, end time.Time) {
	if r.on {
		r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Op: op})
	}
}

// tracedSystem wraps smiler.System for the ingest pipeline of stack B,
// recording a span around every Observe and Predict it makes.
type tracedSystem struct {
	sys      *smiler.System
	rec      *recorder
	predicts int // Predict calls so far: the cache misses
}

func (t *tracedSystem) Observe(id string, v float64) error {
	start := time.Now()
	err := t.sys.Observe(id, v)
	t.rec.add("smiler.observe", int(t.rec.op.Load()), start, time.Now())
	return err
}

func (t *tracedSystem) Predict(id string, h int) (smiler.Forecast, error) {
	t.predicts++
	start := time.Now()
	f, err := t.sys.Predict(id, h)
	t.rec.add("smiler.predict", int(t.rec.op.Load()), start, time.Now())
	return f, err
}

func (t *tracedSystem) HasSensor(id string) bool { return t.sys.HasSensor(id) }

type namedMetric struct {
	name, unit string
	value      float64
}

type traceOut struct {
	metrics        []namedMetric
	spans          []span
	predictMeanSec float64 // mean smiler.predict span (stack B)
	observeMeanSec float64 // mean smiler.observe span (stack B)
}

// replayOp is one op of the traced replay; warm ops rebuild the state
// the HTTP set-up left and are not timed.
type replayOp struct {
	op
	warm bool
}

// replayOps is the workload's stream restricted to its first
// traceSensors sensors: the set-up's warm-up pass, then traceOps
// stream ops.
func replayOps(w workload, g *generator) []replayOp {
	n := w.traceSensors
	var ops []replayOp
	for i := 0; i < n; i++ {
		ops = append(ops, replayOp{op{kind: opObserve, sensor: i, value: g.series[i].at(w.history)}, true})
	}
	for _, i := range w.readSensors() {
		if i < n {
			ops = append(ops, replayOp{op{kind: opForecast, sensor: i}, true})
		}
	}
	for i := range g.cursor {
		g.cursor[i] = w.history + 1
	}
	for stream := 0; stream < w.traceOps; {
		o := g.next()
		if o.sensor < n {
			ops = append(ops, replayOp{o, false})
			stream++
		}
	}
	return ops
}

// perLayer lists the traced metrics: the median of the per-op samples,
// or the mean where the metric is a rate or count per op.
var perLayer = []struct {
	name, unit string
	mean       bool
}{
	{"server.observe_us", "us", false},
	{"server.forecast_hit_us", "us", false},
	{"ingest.observe_us", "us", false},
	{"wal.append_us", "us", false},
	{"wal.bytes_per_obs", "bytes", true},
	{"smiler.observe_us", "us", false},
	{"smiler.predict_ms", "ms", false},
	{"core.observe_us", "us", false},
	{"core.reweight_us", "us", false},
	{"core.predict_ms", "ms", false},
	{"core.cell_fit_ms", "ms", false},
	{"core.mix_us", "us", false},
	{"index.advance_us", "us", false},
	{"index.build_ms", "ms", false},
	{"index.search_ms", "ms", false},
	{"index.lower_bound_ms", "ms", false},
	{"index.verify_ms", "ms", false},
	{"index.candidates_per_search", "count", true},
	{"index.verify_ratio", "ratio", true},
	{"dtw.ns_per_cell", "ns", true},
	{"dtw.calls_per_search", "count", true},
	{"gp.column_fit_ms", "ms", false},
	{"gp.evals_per_fit", "count", true},
	{"mat.cholesky32_us", "us", false},
	{"gpusim.launches_per_op", "count", true},
	{"memsys.hit_ratio", "ratio", true},
	{"runtime.allocs_per_forecast", "count", true},
	{"runtime.bytes_per_forecast", "bytes", true},
	{"core.observe_us.h1k", "us", false},
	{"core.observe_us.h8k", "us", false},
	{"core.observe_us.h64k", "us", false},
	{"core.predict_ms.h1k", "ms", false},
	{"core.predict_ms.h8k", "ms", false},
	{"core.predict_ms.h64k", "ms", false},
}

func poolTotals() memsys.ClassStats {
	f := memsys.Totals(memsys.FloatStats())
	b := memsys.Totals(memsys.ByteStats())
	return memsys.ClassStats{Hits: f.Hits + b.Hits, Misses: f.Misses + b.Misses}
}

// coreSensor is one sensor of stack C.
type coreSensor struct {
	norm *timeseries.Normalizer
	ix   *index.Index
	pipe *core.Pipeline
}

// newCoreSensor builds a sensor the way smiler.System does:
// z-normalized history, an index on the device, a GP ensemble.
func newCoreSensor(cfg smiler.Config, dev *gpusim.Device, hist []float64) (*coreSensor, error) {
	norm, err := timeseries.NewNormalizer(hist)
	if err != nil {
		return nil, err
	}
	work := make([]float64, len(hist))
	for i, v := range hist {
		work[i] = norm.Apply(v)
	}
	params := indexParams(cfg)
	ix, err := index.New(dev, work, params)
	if err != nil {
		return nil, err
	}
	pipe, err := core.NewPipeline(ix, core.PipelineConfig{
		EKV: cfg.EKV, Index: params, Horizon: 1,
		Factory: func() core.Predictor { return core.NewGP() },
	})
	if err != nil {
		ix.Close()
		return nil, err
	}
	return &coreSensor{norm: norm, ix: ix, pipe: pipe}, nil
}

func indexParams(cfg smiler.Config) index.Params {
	return index.Params{Rho: cfg.Rho, Omega: cfg.Omega, ELV: cfg.ELV}
}

// fitColumn is one ELV column of the prediction step as a span: the
// shared Gram base, then every EKV cell's hyperparameter optimization
// with a warm start after the first fit (20 iterations cold, 5 warm,
// the GP predictor's budgets). It returns the largest cell's Θ.
func fitColumn(warm map[[3]int]gp.Hyper, sensor, d int, ekv []int, x0 []float64, x [][]float64, y []float64, rec *recorder, op int, addM func(string, float64)) (gp.Hyper, error) {
	start := time.Now()
	col, err := gp.NewColumn(x0, x, y)
	if err != nil {
		return gp.Hyper{}, err
	}
	defer col.Release()
	var last gp.Hyper
	for _, k := range ekv {
		if k > len(x) {
			k = len(x)
		}
		key := [3]int{sensor, d, k}
		init, iters := warm[key], 5
		if init.Validate() != nil {
			init, iters = gp.HeuristicHyper(x[:k], y[:k]), 20
		}
		res, err := col.Optimize(k, init, iters)
		if err != nil {
			res, err = col.Optimize(k, gp.HeuristicHyper(x[:k], y[:k]), 20)
			if err != nil {
				return gp.Hyper{}, err
			}
		}
		warm[key] = res.Hyper
		last = res.Hyper
		if rec.on {
			addM("gp.evals_per_fit", float64(res.Evals))
		}
	}
	rec.add("gp.column_fit", op, start, time.Now())
	return last, nil
}

// cholesky times the factorization of the k×k GP covariance of x under
// hp, the matrix every GP cell factors; it returns microseconds.
func cholesky(hp gp.Hyper, x [][]float64) (float64, error) {
	k := len(x)
	a := mat.NewDense(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			v := hp.Cov(x[i], x[j])
			if i == j {
				v += hp.Noise*hp.Noise + 1e-8
			}
			a.Set(i, j, v)
		}
	}
	start := time.Now()
	ch, err := mat.NewCholesky(a)
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	if err != nil {
		return 0, err
	}
	ch.Release()
	return us, nil
}

// bandCells is the number of Sakoe-Chiba band cells banded DTW fills
// for two length-d series at warping width rho.
func bandCells(d, rho int) int {
	n := 0
	for j := 1; j <= d; j++ {
		lo, hi := j-rho, j+rho
		if lo < 1 {
			lo = 1
		}
		if hi > d {
			hi = d
		}
		n += hi - lo + 1
	}
	return n
}

// historySweep times core.Pipeline Observe and Predict on one sensor at
// each of three history lengths. The iteration counts are fixed, so the
// history grows by the same few points at every length and the numbers
// do not depend on how long the run is.
func historySweep(cfg smiler.Config, seed int64, addM func(string, float64)) error {
	const observes, predicts = 20, 3
	for _, L := range []struct {
		tag string
		n   int
	}{{"h1k", 1 << 10}, {"h8k", 8 << 10}, {"h64k", 64 << 10}} {
		dev, err := gpusim.NewDevice(cfg.Device)
		if err != nil {
			return err
		}
		ser := newSeries(seed + int64(L.n))
		hist := make([]float64, L.n)
		for t := range hist {
			hist[t] = ser.at(t)
		}
		s, err := newCoreSensor(cfg, dev, hist)
		if err != nil {
			return err
		}
		t := L.n
		for i := 0; i < observes+predicts; i++ {
			start := time.Now()
			err := s.pipe.Observe(s.norm.Apply(ser.at(t)))
			t++
			if err != nil {
				s.ix.Close()
				return err
			}
			if i < observes {
				addM("core.observe_us."+L.tag, float64(time.Since(start).Nanoseconds())/1e3)
				continue
			}
			start = time.Now()
			if _, err := s.pipe.Predict(1); err != nil {
				s.ix.Close()
				return err
			}
			addM("core.predict_ms."+L.tag, float64(time.Since(start).Nanoseconds())/1e6)
		}
		s.ix.Close()
	}
	return nil
}

// writeSpans writes the replay's spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
