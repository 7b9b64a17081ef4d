package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// connections is the client connection cap: one per CPU of the
// 2-vCPU machine the benchmark was sized on.
const connections = 2

// shedAfter is how late an open-loop arrival may start before the
// generator sheds it instead of sending it.
const shedAfter = time.Second

// client talks to one smiler-server over loopback HTTP.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConns:        connections,
		MaxIdleConnsPerHost: connections,
		MaxConnsPerHost:     connections,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and returns the status and the whole body.
func (c *client) call(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches path and decodes a 200 response into v.
func (c *client) getJSON(path string, v any) error {
	st, b, err := c.call(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, st, b)
	}
	return json.Unmarshal(b, v)
}

func (c *client) observe(id string, v float64) (int, []byte, error) {
	body := strconv.AppendFloat([]byte(`{"value":`), v, 'g', -1, 64)
	body = append(body, '}')
	return c.call(http.MethodPost, "/sensors/"+id+"/observe", body)
}

func (c *client) forecast(id string) (int, []byte, error) {
	return c.call(http.MethodGet, "/sensors/"+id+"/forecast?h=1", nil)
}

// do sends one op of the stream; false means it failed or was refused.
func (c *client) do(o op) bool {
	var st int
	var err error
	if o.kind == opObserve {
		st, _, err = c.observe(sensorID(o.sensor), o.value)
	} else {
		st, _, err = c.forecast(sensorID(o.sensor))
	}
	return err == nil && st == http.StatusOK
}

// pipelineTotals is the slice of GET /pipeline/stats the benchmark reads.
type pipelineTotals struct {
	Totals struct {
		QueueDepth int    `json:"queue_depth"`
		Enqueued   uint64 `json:"enqueued"`
		Processed  uint64 `json:"processed"`
	} `json:"totals"`
}

// waitApplied blocks until every accepted observation has been applied
// (and its sensor's cached forecasts invalidated).
func (c *client) waitApplied() error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st pipelineTotals
		if err := c.getJSON("/pipeline/stats", &st); err != nil {
			return err
		}
		if st.Totals.Processed >= st.Totals.Enqueued {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("observations not applied after 60s (%d of %d)", st.Totals.Processed, st.Totals.Enqueued)
		}
		time.Sleep(time.Millisecond)
	}
}

// rounds is how many times the measurement of one server alternates
// between an open-loop and a closed-loop segment. Other tenants of a
// shared host slow everything on it for seconds at a time; spreading
// each phase over the whole run leaves every metric segments outside
// those spells.
const rounds = 4

// sample is one completed op.
type sample struct {
	kind opKind
	lat  float64 // ms from the scheduled send time (open loop)
}

// segment accounts for one open- or closed-loop segment.
type segment struct {
	attempted, failed, shed int64
	samples                 []sample
	late                    []float64 // ms the send started after its schedule
	elapsed                 time.Duration
	cpu                     float64 // server CPU seconds spent (open loop)
}

// latency returns the segment's p-th percentile latency of one op kind
// and its sample count.
func (s *segment) latency(kind opKind, p float64) (float64, int) {
	var xs []float64
	for _, x := range s.samples {
		if x.kind == kind {
			xs = append(xs, x.lat)
		}
	}
	return percentile(xs, p), len(xs)
}

// openLoop sends the workload's ops at its arrival rate for dur, over
// at most `connections` concurrent requests. Each latency runs from the
// arrival's scheduled time, so a stall charges the wait it imposes on
// later arrivals; an arrival that cannot start within shedAfter is shed
// and counted. cpu is the server's CPU clock.
func openLoop(c *client, g *generator, dur time.Duration, rng *rand.Rand, cpu func() (float64, error)) (segment, error) {
	var sched []time.Duration
	var ops []op
	for at := 0.0; ; {
		if g.w.even {
			at += 1 / g.w.rate
		} else {
			at += rng.ExpFloat64() / g.w.rate
		}
		d := time.Duration(at * float64(time.Second))
		if d >= dur {
			break
		}
		sched = append(sched, d)
		ops = append(ops, g.next())
	}
	seg := segment{attempted: int64(len(ops))}
	c0, err := cpu()
	if err != nil {
		return seg, err
	}
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var samples []sample
			var late []float64
			var failed, shed int64
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					break
				}
				due := start.Add(sched[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				began := time.Now()
				if began.Sub(due) > shedAfter {
					shed++
					continue
				}
				ok := c.do(ops[i])
				end := time.Now()
				late = append(late, ms(began.Sub(due)))
				if !ok {
					failed++
					continue
				}
				samples = append(samples, sample{kind: ops[i].kind, lat: ms(end.Sub(due))})
			}
			mu.Lock()
			seg.samples = append(seg.samples, samples...)
			seg.late = append(seg.late, late...)
			seg.failed += failed
			seg.shed += shed
			mu.Unlock()
		}()
	}
	wg.Wait()
	seg.elapsed = time.Since(start)
	c1, err := cpu()
	seg.cpu = c1 - c0
	return seg, err
}

// closedLoop runs `connections` clients back to back on the op stream
// for dur: each sends its next op once the previous one answered.
func closedLoop(c *client, g *generator, dur time.Duration) segment {
	var mu sync.Mutex
	var seg segment
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var samples []sample
			var attempted, failed int64
			for time.Now().Before(deadline) {
				attempted++
				o := g.next()
				if !c.do(o) {
					failed++
					continue
				}
				samples = append(samples, sample{kind: o.kind})
			}
			mu.Lock()
			seg.samples = append(seg.samples, samples...)
			seg.attempted += attempted
			seg.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	seg.elapsed = time.Since(start)
	return seg
}

// phases alternates `rounds` open-loop segments of openDur/rounds with
// closed-loop segments of closedDur/rounds (none when closedDur is 0)
// on one server. Every segment starts once the server has applied all
// observations accepted before it, so one segment's backlog is not
// charged to the next. It also returns the server's peak RSS after the
// first open-loop segment: from then on the server holds whatever the
// closed loop, which runs for a time rather than a count of ops, wrote
// into it.
func phases(sp *serverProc, g *generator, openDur, closedDur time.Duration, seed int64) (open, closed []segment, rssMB float64, err error) {
	c := sp.client
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		if err := c.waitApplied(); err != nil {
			return open, closed, rssMB, err
		}
		seg, err := openLoop(c, g, openDur/rounds, rng, sp.cpuSeconds)
		open = append(open, seg)
		if err != nil {
			return open, closed, rssMB, err
		}
		if r == 0 {
			if rssMB, err = sp.peakRSSMB(); err != nil {
				return open, closed, rssMB, err
			}
		}
		if closedDur == 0 {
			continue
		}
		if err := c.waitApplied(); err != nil {
			return open, closed, rssMB, err
		}
		closed = append(closed, closedLoop(c, g, closedDur/rounds))
	}
	return open, closed, rssMB, c.waitApplied()
}

// segmentLatencies returns the p-th percentile latency of one op kind
// in every open-loop segment with at least minSegmentSamples of them,
// and the number of samples of that kind over all segments.
func segmentLatencies(segs []segment, kind opKind, p float64) (vals []float64, n int) {
	for i := range segs {
		v, k := segs[i].latency(kind, p)
		n += k
		if k >= minSegmentSamples {
			vals = append(vals, v)
		}
	}
	return vals, n
}

// minSegmentSamples is the fewest samples of a kind from which a
// segment's percentile counts.
const minSegmentSamples = 5

// pooledLatency is the p-th percentile latency of one op kind over all
// segments together, and its sample count.
func pooledLatency(segs []segment, kind opKind, p float64) (float64, int) {
	var all segment
	for _, s := range segs {
		all.samples = append(all.samples, s.samples...)
	}
	return all.latency(kind, p)
}

// throughputs is every closed-loop segment's completion rate in ops/s.
func throughputs(segs []segment) []float64 {
	var vals []float64
	for _, s := range segs {
		vals = append(vals, float64(len(s.samples))/s.elapsed.Seconds())
	}
	return vals
}

// cpuPerOps is every open-loop segment's server CPU milliseconds per
// completed op.
func cpuPerOps(segs []segment) []float64 {
	var vals []float64
	for _, s := range segs {
		if len(s.samples) > 0 {
			vals = append(vals, 1000*s.cpu/float64(len(s.samples)))
		}
	}
	return vals
}

// totals sums the counts of a list of segments.
func totals(segs []segment) (attempted, failed, shed int64) {
	for _, s := range segs {
		attempted += s.attempted
		failed += s.failed
		shed += s.shed
	}
	return
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
