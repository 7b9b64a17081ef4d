package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smiler"
	"smiler/internal/server"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	// 100 samples: the p90 rank is 90, leaving 10 beyond it; p99
	// leaves 1.
	if b := beyond(100, 90); b != 10 {
		t.Errorf("beyond(100, p90) = %d, want 10", b)
	}
	if b := beyond(100, 99); b != 1 {
		t.Errorf("beyond(100, p99) = %d, want 1", b)
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a ')' must not shift the fields.
	stat := "4242 (smiler server)) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 37 0 0 20 0 9 0 1234 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.87; math.Abs(got-want) > 1e-12 {
		t.Errorf("cpu = %v s, want %v s (287 ticks)", got, want)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Error("truncated stat parsed without error")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsmiler-server\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("VmHWM = %v MB, want 50", got)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM parsed without error")
	}
}

func TestParsePromAndPhaseMean(t *testing.T) {
	before := parseProm("# TYPE x counter\n" +
		`smiler_predict_phase_seconds_sum{phase="total"} 1.5` + "\n" +
		`smiler_predict_phase_seconds_count{phase="total"} 10` + "\n" +
		`smiler_ingest_processed_total{shard="0"} 5` + "\n" +
		`smiler_ingest_processed_total{shard="1"} 7` + "\n")
	after := parseProm(`smiler_predict_phase_seconds_sum{phase="total"} 3.5` + "\n" +
		`smiler_predict_phase_seconds_count{phase="total"} 20` + "\n" +
		`smiler_ingest_processed_total{shard="0"} 15` + "\n" +
		`smiler_ingest_processed_total{shard="1"} 17` + "\n")
	m, n := phaseMean(before, after, "smiler_predict_phase_seconds", `{phase="total"}`)
	if m != 0.2 || n != 10 {
		t.Errorf("phase mean = %v over %v, want 0.2 over 10", m, n)
	}
	if d := deltaSum(before, after, "smiler_ingest_processed_total"); d != 20 {
		t.Errorf("processed delta = %v, want 20 (summed over shards)", d)
	}
}

func TestSelfTimes(t *testing.T) {
	// One observe through four layers; the server and ingest spans come
	// from different stacks, so their children are matched by op id.
	spans := []span{
		{Name: "server.observe", Start: 0, End: 100, Op: 7},
		{Name: "ingest.observe", Start: 200, End: 270, Op: 7},
		{Name: "smiler.observe", Start: 210, End: 250, Op: 7},
		{Name: "wal.append", Start: 205, End: 210, Op: 7},
		{Name: "core.observe", Start: 300, End: 330, Op: 7},
		{Name: "smiler.observe", Start: 400, End: 420, Op: 8}, // other op: no parent
	}
	linkParents(spans)
	wantParent := []int{-1, 0, 1, 1, 2, -1}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s) parent = %d, want %d", i, s.Name, s.Parent, wantParent[i])
		}
	}
	self := selfTimes(spans)
	want := []int64{30, 25, 10, 5, 30, 20}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s) self = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	// A child from another stack that ran longer than its parent leaves
	// a negative self time, kept so medians over ops stay unbiased.
	spans = []span{{Name: "core.observe", End: 10, Op: 1}, {Name: "index.advance", Start: 20, End: 40, Op: 1}}
	linkParents(spans)
	if self := selfTimes(spans); self[0] != -10 {
		t.Errorf("self time = %d, want -10", self[0])
	}
}

func TestCanaryComparator(t *testing.T) {
	f := smiler.Forecast{Mean: 21.123456789012345, Variance: 0.3370000000000001, Horizon: 1, Quality: "exact", QualityEstimate: 1}
	body, err := expectedBody("canary0", 1, f)
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := compareForecast(body, "canary0", 1, f)
	if err != nil || !ok {
		t.Fatalf("identical forecast rejected: ok=%v err=%v", ok, err)
	}
	// One ulp on the mean or the variance must fail the check.
	for _, g := range []smiler.Forecast{
		func() smiler.Forecast { g := f; g.Mean = math.Nextafter(f.Mean, math.Inf(1)); return g }(),
		func() smiler.Forecast { g := f; g.Variance = math.Nextafter(f.Variance, 0); return g }(),
	} {
		perturbed, err := expectedBody("canary0", 1, g)
		if err != nil {
			t.Fatal(err)
		}
		ok, diff, err := compareForecast(perturbed, "canary0", 1, f)
		if err != nil {
			t.Fatal(err)
		}
		if ok || diff == "" {
			t.Errorf("forecast perturbed by one ulp accepted (mean %s)", strconv.FormatFloat(g.Mean, 'g', -1, 64))
		}
	}
}

func TestCanaryAgainstInProcessServer(t *testing.T) {
	// The whole canary path, against the real handler on a loopback
	// listener: the seed commit passes it bit for bit.
	c, stop := startTestServer(t, nil)
	defer stop()
	res, err := runCanary(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.mismatches != 0 || res.forecasts != canarySensors*canarySteps {
		t.Fatalf("canary: %d mismatches in %d forecasts (%s)", res.mismatches, res.forecasts, res.firstDiff)
	}
	if !(res.mae > 0) {
		t.Fatalf("canary MAE %v, want > 0", res.mae)
	}
}

func TestCanaryCatchesPerturbedForecast(t *testing.T) {
	// A server that nudges one forecast mean by one ulp fails the check.
	var n atomic.Int64
	perturb := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/forecast") || n.Add(1) != 7 {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			var fr server.ForecastResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil {
				t.Error(err)
			}
			fr.Mean = math.Nextafter(fr.Mean, math.Inf(1))
			w.WriteHeader(rec.Code)
			_ = json.NewEncoder(w).Encode(fr)
		})
	}
	c, stop := startTestServer(t, perturb)
	defer stop()
	res, err := runCanary(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.mismatches != 1 || res.firstDiff == "" {
		t.Fatalf("perturbed canary: %d mismatches (want 1), first diff %q", res.mismatches, res.firstDiff)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	for name, w := range workloads {
		a, b := newGenerator(w, 42), newGenerator(w, 42)
		for i := 0; i < 500; i++ {
			if x, y := a.next(), b.next(); x != y {
				t.Fatalf("%s: op %d differs under one seed: %+v vs %+v", name, i, x, y)
			}
		}
		if x, y := newGenerator(w, 42).historyOf(0), newGenerator(w, 43).historyOf(0); x[10] == y[10] {
			t.Errorf("%s: seeds 42 and 43 give the same history", name)
		}
	}
}

func TestSegmentAggregates(t *testing.T) {
	fc := func(lat float64) sample { return sample{kind: opForecast, lat: lat} }
	obs := func(lat float64) sample { return sample{kind: opObserve, lat: lat} }
	segs := []segment{
		{samples: []sample{fc(1), fc(2), fc(3), fc(4), fc(5), obs(9)}, elapsed: 2 * time.Second, cpu: 0.012},
		{samples: []sample{fc(7), obs(8)}, elapsed: time.Second, cpu: 0.004},
	}
	// The second segment has too few forecasts for its percentile to
	// count; its samples still count towards the total.
	vals, n := segmentLatencies(segs, opForecast, 50)
	if len(vals) != 1 || vals[0] != 3 || n != 6 {
		t.Errorf("segmentLatencies = %v over %d samples, want [3] over 6", vals, n)
	}
	if p, n := pooledLatency(segs, opObserve, 50); p != 8 || n != 2 {
		t.Errorf("pooledLatency(observe) = %v over %d, want 8 over 2", p, n)
	}
	if got := throughputs(segs); len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Errorf("throughputs = %v, want [3 2]", got)
	}
	if got := cpuPerOps(segs); len(got) != 2 || math.Abs(got[0]-2) > 1e-12 || math.Abs(got[1]-2) > 1e-12 {
		t.Errorf("cpuPerOps = %v, want [2 2] ms", got)
	}
	if a, f, s := totals([]segment{{attempted: 5, failed: 1, shed: 2}, {attempted: 3}}); a != 8 || f != 1 || s != 2 {
		t.Errorf("totals = %d, %d, %d, want 8, 1, 2", a, f, s)
	}
}

func TestBandCells(t *testing.T) {
	// Width 0 is the diagonal; a width covering the whole matrix fills it.
	if n := bandCells(32, 0); n != 32 {
		t.Errorf("bandCells(32, 0) = %d, want 32", n)
	}
	if n := bandCells(8, 8); n != 64 {
		t.Errorf("bandCells(8, 8) = %d, want 64", n)
	}
}

// startTestServer serves the API handler of a default-configured
// system on a loopback listener, through wrap when it is not nil.
func startTestServer(t *testing.T, wrap func(http.Handler) http.Handler) (*client, func()) {
	t.Helper()
	sys, err := smiler.New(smiler.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(sys)
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	hs := httptest.NewServer(h)
	c := newClient(hs.URL)
	return c, func() {
		c.close()
		hs.Close()
		srv.Close()
		sys.Close()
	}
}
