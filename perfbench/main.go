// Command perfbench is the SMiLer serving benchmark. It starts a
// smiler-server process, drives it over loopback HTTP with one seeded
// workload, checks the served forecasts against an in-process
// reference, and prints every metric by name with its unit; the last
// line of its output is one JSON object. With -trace 1 it also replays
// the workload in-process at each layer's public entry point and
// prints per-layer metrics instead of the end-to-end ones.
//
// perfbench/run.sh builds the server and this program from the
// checkout and runs it:
//
//	bash perfbench/run.sh --workload dashboard --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// serversPerRun is how many servers a run sets up from scratch and
// measures; the reported setup_s is the median set-up.
const serversPerRun = 3

// openShare is the part of the measured seconds spent in the open-loop
// phase; the closed-loop capacity phase gets the rest.
const openShare = 0.7

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	server   string
	workdir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: ingest|forecast|dashboard")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 12, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1 = add the traced in-process replay and report per-layer metrics")
	flag.StringVar(&o.server, "server", "", "smiler-server binary to benchmark")
	flag.StringVar(&o.workdir, "workdir", "", "scratch directory for server state, logs and spans")
	flag.Parse()
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options) (result, error) {
	res := result{Metrics: map[string]metric{}}
	w, ok := workloads[o.workload]
	if !ok {
		return res, fmt.Errorf("unknown workload %q (ingest, forecast or dashboard)", o.workload)
	}
	if o.seconds < 1 {
		return res, fmt.Errorf("-seconds %d must be positive", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return res, fmt.Errorf("-trace %d must be 0 or 1", o.trace)
	}
	if _, err := os.Stat(o.server); err != nil {
		return res, fmt.Errorf("server binary: %w", err)
	}
	traced := o.trace == 1
	dir := filepath.Join(o.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	servers := serversPerRun
	openDur := time.Duration(float64(o.seconds) * openShare * float64(time.Second))
	closedDur := time.Duration(o.seconds)*time.Second - openDur
	if traced {
		servers = 1 // setup_s is reported by the untraced run only
		closedDur = 0
	}
	var setups, rssMB []float64
	var open, closed []segment
	var before, after promSamples
	var maxDepth int
	var sp *serverProc
	defer func() {
		if sp != nil {
			sp.stop()
		}
	}()
	// Every server is set up from scratch, timed, and then measured for
	// its share of the run on the same op stream: one server process can
	// run the same inputs markedly slower than another, so the run
	// samples several.
	for r := 0; r < servers; r++ {
		if sp != nil {
			sp.stop()
		}
		var err error
		sp, err = startServer(o.server, w, filepath.Join(dir, fmt.Sprintf("server%d", r)))
		if err != nil {
			return res, err
		}
		g := newGenerator(w, o.seed)
		start := time.Now()
		n, err := setupPopulation(sp.client, g)
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		res.Attempted += n
		for i := range g.cursor {
			g.cursor[i] = w.history + 1 // the warm-up observed index history
		}
		var depth *depthSampler
		if traced {
			if before, err = sp.scrape(); err != nil {
				return res, err
			}
			depth = startDepthSampler(sp.client)
		}
		op, cl, rss, err := phases(sp, g, openDur/time.Duration(servers), closedDur/time.Duration(servers), o.seed)
		maxDepth = max(maxDepth, depth.stop())
		open, closed = append(open, op...), append(closed, cl...)
		rssMB = append(rssMB, rss)
		if err != nil {
			return res, err
		}
		if traced {
			if after, err = sp.scrape(); err != nil {
				return res, err
			}
		}
	}
	olAttempted, olFailed, olShed := totals(open)
	clAttempted, clFailed, _ := totals(closed)
	res.Attempted += olAttempted + clAttempted
	res.Failed += olFailed + olShed + clFailed

	can, err := runCanary(sp.client, o.seed)
	res.Attempted += can.attempted
	if err != nil {
		return res, fmt.Errorf("canary: %w", err)
	}
	res.Correct = can.mismatches == 0
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d canary forecasts differ; first: %s\n", can.mismatches, can.forecasts, can.firstDiff)
	}

	obsSeg, nObs := segmentLatencies(open, opObserve, 50)
	fcSeg, nFc := segmentLatencies(open, opForecast, 50)
	fmt.Printf("open loop: %d segments, %d attempted, %d failed, %d shed; %d observe and %d forecast latency samples\n",
		len(open), olAttempted, olFailed, olShed, nObs, nFc)
	fmt.Printf("canary: %d forecasts, %d mismatches\n", can.forecasts, can.mismatches)

	if !traced {
		fmt.Printf("closed loop: %d segments, %d attempted, %d failed\n", len(closed), clAttempted, clFailed)
		// Every timed figure is the median over segments, so a segment
		// that other tenants slowed does not move the run.
		put("setup_s", "s", median(setups))
		put("observe_p50_ms", "ms", median(obsSeg))
		put("forecast_p50_ms", "ms", median(fcSeg))
		put("capacity_ops_per_s", "ops/s", median(throughputs(closed)))
		put("server_cpu_ms_per_op", "ms", median(cpuPerOps(open)))
		put("peak_rss_mb", "MB", median(rssMB))
		put("forecast_mae", "raw", can.mae)
		return res, nil
	}

	obs90, _ := pooledLatency(open, opObserve, 90)
	fc90, _ := pooledLatency(open, opForecast, 90)
	var late []float64
	for _, s := range open {
		late = append(late, s.late...)
	}
	for _, c := range []struct {
		kind string
		n    int
	}{{"observe", nObs}, {"forecast", nFc}} {
		if b := beyond(c.n, 90); b < 10 {
			fmt.Fprintf(os.Stderr, "perfbench: warning: %s p90 has only %d samples beyond it\n", c.kind, b)
		}
	}
	put("load.observe_p90_ms", "ms", obs90)
	put("load.forecast_p90_ms", "ms", fc90)
	put("load.late_p99_ms", "ms", percentile(late, 99))
	put("load.shed", "count", float64(olShed))
	put("error_rate", "ratio", float64(res.Failed)/float64(res.Attempted))
	put("ingest.queue_depth_max", "count", float64(maxDepth))
	hits := deltaSum(before, after, "smiler_forecast_cache_hits_total")
	misses := deltaSum(before, after, "smiler_forecast_cache_misses_total")
	put("ingest.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	applied := deltaSum(before, after, "smiler_ingest_processed_total")
	lagSec := deltaSum(before, after, "smiler_ingest_apply_latency_seconds_total")
	put("ingest.apply_lag_ms", "ms", 1000*ratio(lagSec, applied))
	put("runtime.gc_pause_ms", "ms", 1000*deltaSum(before, after, "smiler_runtime_gc_pause_seconds_sum"))
	serverPredict, _ := phaseMean(before, after, "smiler_predict_phase_seconds", `{phase="total"}`)
	serverObserve, _ := phaseMean(before, after, "smiler_observe_phase_seconds", `{phase="total"}`)

	tr, err := traceReplay(w, o.seed, filepath.Join(dir, "trace"))
	if err != nil {
		return res, fmt.Errorf("traced replay: %w", err)
	}
	for _, m := range tr.metrics {
		put(m.name, m.unit, m.value)
	}
	put("reconcile.predict_ratio", "ratio", ratio(tr.predictMeanSec, serverPredict))
	put("reconcile.observe_ratio", "ratio", ratio(tr.observeMeanSec, serverObserve))
	if err := writeSpans(filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, o.seed)), tr.spans); err != nil {
		return res, err
	}
	return res, nil
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// depthSampler polls the server's summed shard queue depth during the
// open-loop phase of a traced run.
type depthSampler struct {
	stopCh chan struct{}
	done   chan int
}

func startDepthSampler(c *client) *depthSampler {
	d := &depthSampler{stopCh: make(chan struct{}), done: make(chan int)}
	go func() {
		best := 0
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.stopCh:
				d.done <- best
				return
			case <-tick.C:
				var st pipelineTotals
				if c.getJSON("/pipeline/stats", &st) == nil && st.Totals.QueueDepth > best {
					best = st.Totals.QueueDepth
				}
			}
		}
	}()
	return d
}

// stop ends the sampler and returns the deepest queue it saw (0 for a
// nil sampler).
func (d *depthSampler) stop() int {
	if d == nil {
		return 0
	}
	close(d.stopCh)
	return <-d.done
}
