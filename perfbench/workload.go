package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// workload is one traffic mix. Every size and rate is fixed here, never
// derived from a measured capacity, so two commits see the same load.
type workload struct {
	name string
	// sensors registered at setup, each with history points of
	// generated past before the timed phases.
	sensors, history int
	// readOnly sensors (ids 0..readOnly-1) are only ever read; the rest
	// only written. Zero means every sensor is both read and written.
	readOnly int
	// readShare is the fraction of ops that are h=1 forecast reads
	// (ignored when ticks is set).
	readShare float64
	// ticks switches the op stream to sampling ticks: every sensor
	// observes its next value once per tick and is read once per tick,
	// readLag observations after its own, so the read always follows
	// the observation that invalidated its cached forecast.
	ticks bool
	// rate is the open-loop arrival rate in ops/s; arrivals are Poisson
	// unless even spaces them exactly 1/rate apart.
	rate float64
	even bool
	// wal runs the server with a write-ahead log (fsync interval).
	wal bool
	// traceSensors and traceOps bound the in-process traced replay: the
	// op stream restricted to the first traceSensors sensors, cut after
	// traceOps ops.
	traceSensors, traceOps int
}

var workloads = map[string]workload{
	// Writes dominate: observe decode, shard queues, WAL append and
	// index.Advance over 4096-point histories. The 10% reads go to a
	// read-only subset whose cached forecasts never change, so no
	// search or GP runs during the timed phases.
	"ingest": {name: "ingest", sensors: 256, history: 4096, readOnly: 8, readShare: 0.1,
		rate: 800, wal: true, traceSensors: 16, traceOps: 600},
	// Every read follows its sensor's observation, so the forecast
	// cache never answers it: each read is a full suffix kNN search
	// plus nine GP cell fits. Evenly spaced arrivals keep forecasts
	// from queueing behind each other, so the latency is the forecast's
	// own cost rather than the luck of the arrival draw.
	"forecast": {name: "forecast", sensors: 32, history: 4096, ticks: true,
		rate: 32, even: true, traceSensors: 12, traceOps: 48},
	// 1 observe per 50 reads over short histories: ~98% of reads are
	// cache hits, so the HTTP/JSON path and the coalescer dominate.
	"dashboard": {name: "dashboard", sensors: 128, history: 256, readShare: 50.0 / 51,
		rate: 1000, traceSensors: 32, traceOps: 3000},
}

type opKind uint8

const (
	opObserve opKind = iota
	opForecast
)

// op is one request of the stream: an observation of the sensor's next
// value, or an h=1 forecast read.
type op struct {
	kind   opKind
	sensor int
	value  float64
}

// readLag is how many observations of a tick separate a sensor's
// observation from its read.
const readLag = 4

// series generates one sensor's values: a daily and a weekly cycle
// over AR(1) noise. The seed sets the phases and the noise path; the
// shape is the same for every sensor and seed, so the search and fit
// costs do not depend on the seed. Values are produced on demand and
// kept, so the history, the stream and the canary all read one
// deterministic path.
type series struct {
	rng              *rand.Rand
	offset, a1, a2   float64
	ph1, ph2         float64
	phi, sigma, prev float64
	vals             []float64
}

func newSeries(seed int64) *series {
	r := rand.New(rand.NewSource(seed))
	return &series{
		rng:    r,
		offset: 25,
		a1:     5,
		a2:     2,
		ph1:    2 * math.Pi * r.Float64(),
		ph2:    2 * math.Pi * r.Float64(),
		phi:    0.7,
		sigma:  0.5,
	}
}

// at returns the value at time t, extending the path as needed.
func (s *series) at(t int) float64 {
	for len(s.vals) <= t {
		n := float64(len(s.vals))
		s.prev = s.phi*s.prev + s.sigma*s.rng.NormFloat64()
		v := s.offset + s.a1*math.Sin(2*math.Pi*n/24+s.ph1) + s.a2*math.Sin(2*math.Pi*n/168+s.ph2) + s.prev
		s.vals = append(s.vals, v)
	}
	return s.vals[t]
}

// generator is the seeded op stream of one workload. next is safe for
// concurrent use; the stream is deterministic only when drawn in
// order, which the open-loop phase and the traced replay do.
type generator struct {
	w      workload
	mu     sync.Mutex
	rng    *rand.Rand
	series []*series
	cursor []int // next stream index per sensor
	tick   int   // position within the current tick (ticks mode)
	drawn  int   // ops drawn so far (ticks mode)
}

func newGenerator(w workload, seed int64) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed)), cursor: make([]int, w.sensors)}
	for i := 0; i < w.sensors; i++ {
		g.series = append(g.series, newSeries(seed*1_000_003+int64(i)))
		g.cursor[i] = w.history
	}
	return g
}

func sensorID(i int) string { return fmt.Sprintf("s%04d", i) }

// historyOf returns the sensor's registration history.
func (g *generator) historyOf(i int) []float64 {
	h := make([]float64, g.w.history)
	for t := range h {
		h[t] = g.series[i].at(t)
	}
	return h
}

// observeNext returns the sensor's next stream value and advances it.
func (g *generator) observeNext(i int) op {
	v := g.series[i].at(g.cursor[i])
	g.cursor[i]++
	return op{kind: opObserve, sensor: i, value: v}
}

// next draws the next op of the stream.
func (g *generator) next() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.w.sensors
	for g.w.ticks {
		i := g.tick
		g.tick = (g.tick + 1) % (2 * n)
		g.drawn++
		if i%2 == 0 {
			return g.observeNext(i / 2)
		}
		// The first readLag read slots name sensors the stream has not
		// observed yet; their reads would hit the warm-up forecast.
		if g.drawn > 2*readLag {
			return op{kind: opForecast, sensor: (i/2 - readLag + n) % n}
		}
	}
	if g.rng.Float64() < g.w.readShare {
		if g.w.readOnly > 0 {
			return op{kind: opForecast, sensor: g.rng.Intn(g.w.readOnly)}
		}
		return op{kind: opForecast, sensor: g.rng.Intn(n)}
	}
	return g.observeNext(g.w.readOnly + g.rng.Intn(n-g.w.readOnly))
}

// readSensors lists the sensors the stream reads (the warm-up pass
// computes one forecast for each).
func (w workload) readSensors() []int {
	n := w.sensors
	if w.readOnly > 0 {
		n = w.readOnly
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
