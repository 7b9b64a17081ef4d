package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"smiler"
	"smiler/internal/dtw"
	"smiler/internal/gp"
	"smiler/internal/gpusim"
	"smiler/internal/index"
	"smiler/internal/ingest"
	"smiler/internal/server"
	"smiler/internal/timeseries"
	"smiler/internal/wal"
)

func traceReplay(w workload, seed int64, dir string) (traceOut, error) {
	var out traceOut
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	g := newGenerator(w, seed)
	ops := replayOps(w, g)
	hist := make([][]float64, w.traceSensors)
	for i := range hist {
		hist[i] = g.historyOf(i)
	}
	cfg := smiler.DefaultConfig()
	rec := &recorder{t0: time.Now()}
	m := map[string][]float64{} // per-layer samples
	addM := func(name string, v float64) { m[name] = append(m[name], v) }

	b, err := newIngestStack(w, cfg, hist, rec, filepath.Join(dir, "walB"))
	if err != nil {
		return out, err
	}
	defer b.close()
	a, err := newServerStack(w, cfg, hist, filepath.Join(dir, "walA"))
	if err != nil {
		return out, err
	}
	defer a.close()
	c, err := newCoreStack(cfg, hist)
	if err != nil {
		return out, err
	}
	defer c.close()
	d, err := newIndexStack(cfg, hist, rec)
	if err != nil {
		return out, err
	}
	defer d.close()

	pool0 := poolTotals()
	hitOps := map[int]bool{}
	for id, o := range ops {
		rec.on = !o.warm
		if !o.warm && (id == 0 || ops[id-1].warm) {
			// The timed ops begin: reset the counters read as deltas.
			b.mark()
			c.mark()
			pool0 = poolTotals()
		}
		f, missed, err := b.step(id, o)
		if err != nil {
			return out, err
		}
		if err := a.step(id, o, rec, f); err != nil {
			return out, err
		}
		if o.kind == opForecast && !missed {
			hitOps[id] = true
			continue
		}
		if err := c.step(id, o, rec, f, addM); err != nil {
			return out, err
		}
		if err := d.step(id, o, rec, addM); err != nil {
			return out, err
		}
	}
	pool1 := poolTotals()
	addM("memsys.hit_ratio", ratio(float64(pool1.Hits-pool0.Hits), float64(pool1.Hits+pool1.Misses-pool0.Hits-pool0.Misses)))
	b.report(addM)
	c.report(addM)
	d.report(addM)
	if err := historySweep(cfg, seed, addM); err != nil {
		return out, err
	}

	linkParents(rec.spans)
	self := selfTimes(rec.spans)
	var predSum, obsSum, predN, obsN float64
	for i, s := range rec.spans {
		us, msec := float64(self[i])/1e3, float64(self[i])/1e6
		switch s.Name {
		case "server.observe":
			addM("server.observe_us", us)
		case "server.forecast":
			if hitOps[s.Op] {
				addM("server.forecast_hit_us", us)
			}
		case "ingest.observe":
			addM("ingest.observe_us", us)
		case "wal.append":
			addM("wal.append_us", float64(s.dur())/1e3)
		case "smiler.observe":
			addM("smiler.observe_us", us)
			obsSum += float64(s.dur()) / 1e9
			obsN++
		case "smiler.predict":
			addM("smiler.predict_ms", msec)
			predSum += float64(s.dur()) / 1e9
			predN++
		case "core.observe":
			addM("core.observe_us", float64(s.dur())/1e3)
		case "core.predict":
			addM("core.predict_ms", float64(s.dur())/1e6)
		case "index.advance":
			addM("index.advance_us", float64(s.dur())/1e3)
		case "index.build":
			addM("index.build_ms", float64(s.dur())/1e6)
		case "index.search":
			addM("index.search_ms", float64(s.dur())/1e6)
		case "gp.column_fit":
			addM("gp.column_fit_ms", float64(s.dur())/1e6)
		}
	}
	out.predictMeanSec = ratio(predSum, predN)
	out.observeMeanSec = ratio(obsSum, obsN)
	for _, pl := range perLayer {
		v := median(m[pl.name])
		if pl.mean {
			v = mean(m[pl.name])
		}
		// A self time below the stack-to-stack noise can have a
		// negative median; the layer's cost is then reported as 0.
		out.metrics = append(out.metrics, namedMetric{pl.name, pl.unit, math.Max(v, 0)})
	}
	out.spans = rec.spans
	return out, nil
}

// ingestStack is stack B: the ingest pipeline over a span-wrapped
// smiler.System, journaling to a WAL when the workload has one.
type ingestStack struct {
	sys  *smiler.System
	ts   *tracedSystem
	pipe *ingest.Pipeline
	mgr  *wal.Manager
	wal0 wal.LogStats // WAL counters when the timed ops began

	allocs, allocBytes uint64
	forecasts          int
}

func newIngestStack(w workload, cfg smiler.Config, hist [][]float64, rec *recorder, walDir string) (_ *ingestStack, err error) {
	s := &ingestStack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.sys, err = smiler.New(cfg); err != nil {
		return nil, err
	}
	s.ts = &tracedSystem{sys: s.sys, rec: rec}
	icfg := ingest.Config{}
	if w.wal {
		if s.mgr, err = wal.OpenManager(walDir, runtime.GOMAXPROCS(0), wal.Options{Policy: wal.SyncInterval}, ingest.ShardIndex); err != nil {
			return nil, err
		}
		icfg.Shards = s.mgr.Shards()
		icfg.Journal = func(shard int, id string, v float64) error {
			start := time.Now()
			err := s.mgr.AppendObserve(shard, id, v)
			rec.add("wal.append", int(rec.op.Load()), start, time.Now())
			return err
		}
	}
	if s.pipe, err = ingest.New(s.ts, icfg); err != nil {
		return nil, err
	}
	for i, h := range hist {
		if err := s.sys.AddSensor(sensorID(i), h); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *ingestStack) close() {
	if s.pipe != nil {
		s.pipe.Close()
	}
	if s.mgr != nil {
		s.mgr.Close()
	}
	if s.sys != nil {
		s.sys.Close()
	}
}

func (s *ingestStack) mark() {
	if s.mgr != nil {
		s.wal0 = s.mgr.Stats()
	}
}

// step runs one op; for a forecast it returns the answer and whether
// it reached the system (a cache miss).
func (s *ingestStack) step(id int, o replayOp) (smiler.Forecast, bool, error) {
	rec := s.ts.rec
	rec.op.Store(int64(id))
	sid := sensorID(o.sensor)
	if o.kind == opObserve {
		start := time.Now()
		if _, err := s.pipe.Observe(sid, o.value); err != nil {
			return smiler.Forecast{}, false, err
		}
		if err := s.pipe.Drain(); err != nil {
			return smiler.Forecast{}, false, err
		}
		rec.add("ingest.observe", id, start, time.Now())
		return smiler.Forecast{}, false, nil
	}
	var ms0, ms1 runtime.MemStats
	predicts := s.ts.predicts
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	f, err := s.pipe.Forecast(sid, 1)
	end := time.Now()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return f, false, err
	}
	rec.add("ingest.forecast", id, start, end)
	if rec.on {
		s.allocs += ms1.Mallocs - ms0.Mallocs
		s.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		s.forecasts++
	}
	return f, s.ts.predicts > predicts, nil
}

func (s *ingestStack) report(addM func(string, float64)) {
	if s.mgr != nil {
		st := s.mgr.Stats()
		addM("wal.bytes_per_obs", ratio(float64(st.Bytes-s.wal0.Bytes), float64(st.Appends-s.wal0.Appends)))
	}
	addM("runtime.allocs_per_forecast", ratio(float64(s.allocs), float64(s.forecasts)))
	addM("runtime.bytes_per_forecast", ratio(float64(s.allocBytes), float64(s.forecasts)))
}

// serverStack is stack A: the API handler served in-process.
type serverStack struct {
	sys *smiler.System
	srv *server.Server
	mgr *wal.Manager
}

func newServerStack(w workload, cfg smiler.Config, hist [][]float64, walDir string) (_ *serverStack, err error) {
	s := &serverStack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.sys, err = smiler.New(cfg); err != nil {
		return nil, err
	}
	opts := server.Options{}
	if w.wal {
		if s.mgr, err = wal.OpenManager(walDir, runtime.GOMAXPROCS(0), wal.Options{Policy: wal.SyncInterval}, ingest.ShardIndex); err != nil {
			return nil, err
		}
		opts.SensorJournal = s.mgr
		opts.Pipeline.Journal = s.mgr.AppendObserve
		opts.Pipeline.Shards = s.mgr.Shards()
	}
	if s.srv, err = server.NewWithOptions(s.sys, opts); err != nil {
		return nil, err
	}
	for i, h := range hist {
		b, err := json.Marshal(server.AddSensorRequest{ID: sensorID(i), History: h})
		if err != nil {
			return nil, err
		}
		if st, body := s.serve(http.MethodPost, "/sensors", string(b)); st != http.StatusCreated {
			return nil, fmt.Errorf("stack A register: %d %s", st, body)
		}
	}
	return s, nil
}

func (s *serverStack) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.mgr != nil {
		s.mgr.Close()
	}
	if s.sys != nil {
		s.sys.Close()
	}
}

func (s *serverStack) serve(method, path, body string) (int, []byte) {
	rw := httptest.NewRecorder()
	s.srv.ServeHTTP(rw, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rw.Code, rw.Body.Bytes()
}

// step runs one op; a forecast body must equal stack B's answer byte
// for byte.
func (s *serverStack) step(id int, o replayOp, rec *recorder, want smiler.Forecast) error {
	sid := sensorID(o.sensor)
	if o.kind == opObserve {
		body := `{"value":` + strconv.FormatFloat(o.value, 'g', -1, 64) + `}`
		start := time.Now()
		st, b := s.serve(http.MethodPost, "/sensors/"+sid+"/observe", body)
		if err := s.srv.Pipeline().Drain(); err != nil {
			return err
		}
		rec.add("server.observe", id, start, time.Now())
		if st != http.StatusOK {
			return fmt.Errorf("stack A observe: %d %s", st, b)
		}
		return nil
	}
	start := time.Now()
	st, b := s.serve(http.MethodGet, "/sensors/"+sid+"/forecast?h=1", "")
	rec.add("server.forecast", id, start, time.Now())
	if st != http.StatusOK {
		return fmt.Errorf("stack A forecast: %d %s", st, b)
	}
	if ok, diff, err := compareForecast(b, sid, 1, want); err != nil || !ok {
		return fmt.Errorf("stack A and stack B forecasts differ (%v): %s", err, diff)
	}
	return nil
}

// coreStack is stack C: core.Pipeline with its own phase splits.
type coreStack struct {
	dev       *gpusim.Device
	sensors   []*coreSensor
	launches0 int64
	timed     int
}

func newCoreStack(cfg smiler.Config, hist [][]float64) (_ *coreStack, err error) {
	s := &coreStack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.dev, err = gpusim.NewDevice(cfg.Device); err != nil {
		return nil, err
	}
	for _, h := range hist {
		cs, err := newCoreSensor(cfg, s.dev, h)
		if err != nil {
			return nil, err
		}
		s.sensors = append(s.sensors, cs)
	}
	return s, nil
}

func (s *coreStack) close() {
	for _, cs := range s.sensors {
		cs.ix.Close()
	}
}

func (s *coreStack) mark() { s.launches0 = s.dev.Profile().Launches }

// step runs one op; a forecast, mapped back to raw units, must equal
// stack B's.
func (s *coreStack) step(id int, o replayOp, rec *recorder, want smiler.Forecast, addM func(string, float64)) error {
	cs := s.sensors[o.sensor]
	if rec.on {
		s.timed++
	}
	if o.kind == opObserve {
		start := time.Now()
		err := cs.pipe.Observe(cs.norm.Apply(o.value))
		rec.add("core.observe", id, start, time.Now())
		if err != nil {
			return err
		}
		if rec.on {
			addM("core.reweight_us", cs.pipe.LastObserveTiming().ReweightSec*1e6)
		}
		return nil
	}
	start := time.Now()
	p, err := cs.pipe.Predict(1)
	rec.add("core.predict", id, start, time.Now())
	if err != nil {
		return err
	}
	if got := cs.norm.Invert(p.Mean); got != want.Mean {
		return fmt.Errorf("stack C forecast %v differs from stack B %v (op %d)", got, want.Mean, id)
	}
	if rec.on {
		t := cs.pipe.Timing()
		addM("core.cell_fit_ms", t.CellFitSec*1e3)
		addM("core.mix_us", t.MixSec*1e6)
	}
	return nil
}

func (s *coreStack) report(addM func(string, float64)) {
	addM("gpusim.launches_per_op", ratio(float64(s.dev.Profile().Launches-s.launches0), float64(s.timed)))
}

// indexStack is stack D: the index on its own, then the GP and DTW
// kernels on the kNN sets each search returned.
type indexStack struct {
	cfg     smiler.Config
	params  index.Params
	norms   []*timeseries.Normalizer
	ixs     []*index.Index
	warm    map[[3]int]gp.Hyper // GP warm start per (sensor, d, k), as each cell keeps its own
	scratch []float64

	dtwNs, dtwCells           float64
	cands, verified, searches float64
}

func newIndexStack(cfg smiler.Config, hist [][]float64, rec *recorder) (_ *indexStack, err error) {
	s := &indexStack{cfg: cfg, params: indexParams(cfg), warm: map[[3]int]gp.Hyper{}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	dev, err := gpusim.NewDevice(cfg.Device)
	if err != nil {
		return nil, err
	}
	s.scratch = dtw.NewCompressedScratch(s.params.Rho)
	rec.on = true
	for i, h := range hist {
		norm, err := timeseries.NewNormalizer(h)
		if err != nil {
			return nil, err
		}
		work := make([]float64, len(h))
		for t, v := range h {
			work[t] = norm.Apply(v)
		}
		start := time.Now()
		ix, err := index.New(dev, work, s.params)
		rec.add("index.build", -1-i, start, time.Now())
		if err != nil {
			return nil, err
		}
		s.norms = append(s.norms, norm)
		s.ixs = append(s.ixs, ix)
	}
	return s, nil
}

func (s *indexStack) close() {
	for _, ix := range s.ixs {
		ix.Close()
	}
}

func (s *indexStack) step(id int, o replayOp, rec *recorder, addM func(string, float64)) error {
	ix := s.ixs[o.sensor]
	if o.kind == opObserve {
		start := time.Now()
		err := ix.Advance(s.norms[o.sensor].Apply(o.value))
		rec.add("index.advance", id, start, time.Now())
		return err
	}
	maxK := s.cfg.EKV[len(s.cfg.EKV)-1]
	start := time.Now()
	items, err := ix.Search(maxK, 1)
	rec.add("index.search", id, start, time.Now())
	if err != nil {
		return err
	}
	if rec.on {
		st := ix.Stats()
		addM("index.lower_bound_ms", st.LowerBoundWallSeconds*1e3)
		addM("index.verify_ms", st.VerifyWallSeconds*1e3)
		s.cands += float64(st.Candidates)
		s.verified += float64(st.Unfiltered)
		s.searches++
	}
	n := ix.Len()
	for _, it := range items {
		k := len(it.Neighbors)
		if k > maxK {
			k = maxK
		}
		if k == 0 {
			continue
		}
		d := it.D
		x := make([][]float64, k)
		y := make([]float64, k)
		for i := 0; i < k; i++ {
			t := it.Neighbors[i].T
			x[i] = make([]float64, d)
			for j := range x[i] {
				x[i][j] = ix.Value(t + j)
			}
			y[i] = ix.Value(t + d)
		}
		x0 := make([]float64, d)
		for j := range x0 {
			x0[j] = ix.Value(n - d + j)
		}
		for i := 0; i < k && rec.on; i++ {
			start := time.Now()
			if _, _, err := dtw.DistanceCompressedAbandon(x0, x[i], s.params.Rho, math.Inf(1), s.scratch); err != nil {
				return err
			}
			s.dtwNs += float64(time.Since(start).Nanoseconds())
			s.dtwCells += float64(bandCells(d, s.params.Rho))
		}
		hp, err := fitColumn(s.warm, o.sensor, d, s.cfg.EKV, x0, x, y, rec, id, addM)
		if err != nil {
			return err
		}
		if k == maxK && rec.on {
			us, err := cholesky(hp, x)
			if err != nil {
				return err
			}
			addM("mat.cholesky32_us", us)
		}
	}
	return nil
}

func (s *indexStack) report(addM func(string, float64)) {
	addM("index.candidates_per_search", ratio(s.cands, s.searches))
	addM("index.verify_ratio", ratio(s.verified, s.cands))
	addM("dtw.calls_per_search", ratio(s.verified, s.searches))
	addM("dtw.ns_per_cell", ratio(s.dtwNs, s.dtwCells))
}
