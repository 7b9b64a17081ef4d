package smiler

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"smiler/internal/timeseries"
)

// countdownCtx is a deterministic deadline: its Err flips to
// DeadlineExceeded after n calls, so tests stage "the deadline fired
// after exactly this much search work" without wall-clock flakiness.
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
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} { return nil }

// noisySeries is noisySeasonal with the noise turned up: still
// forecastable (the seasonal analogs exist), but the lower bounds are
// loose enough that the filter step keeps many candidates and anytime
// verification actually runs in rounds.
func noisySeries(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 10*(math.Sin(2*math.Pi*float64(i)/48)+
			0.3*math.Sin(2*math.Pi*float64(i)/12)) + rng.NormFloat64()*3
	}
	return out
}

// TestAnytimeABBitIdentical is the headline safety claim of the
// anytime engine at the public API: with no deadline, a system running
// -anytime forecasts bit-identically to a plain one. Progressive rounds
// change the order candidates are verified in, never what a completed
// search — and hence the predictor — sees.
func TestAnytimeABBitIdentical(t *testing.T) {
	exact, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Close()
	anyCfg := smallConfig()
	anyCfg.Anytime = true
	anySys, err := New(anyCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer anySys.Close()

	rng := rand.New(rand.NewSource(11))
	streams := map[string][]float64{
		"a": noisySeries(rng, 460),
		"b": noisySeasonal(rng, 460, 5, 50),
	}
	for id, all := range streams {
		if err := exact.AddSensor(id, all[:400]); err != nil {
			t.Fatal(err)
		}
		if err := anySys.AddSensor(id, all[:400]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 400; i < 430; i++ {
		for id, all := range streams {
			fe, err := exact.Predict(id, 1)
			if err != nil {
				t.Fatal(err)
			}
			fa, err := anySys.Predict(id, 1)
			if err != nil {
				t.Fatal(err)
			}
			if fa.Mean != fe.Mean || fa.Variance != fe.Variance {
				t.Fatalf("step %d sensor %s: anytime %v/%v vs exact %v/%v",
					i, id, fa.Mean, fa.Variance, fe.Mean, fe.Variance)
			}
			if fa.Quality != "exact" || fa.QualityEstimate != 1 {
				t.Fatalf("undeadlined anytime forecast tagged %q/%v, want exact/1",
					fa.Quality, fa.QualityEstimate)
			}
			he, err := exact.PredictHorizons(id, []int{1, 3})
			if err != nil {
				t.Fatal(err)
			}
			ha, err := anySys.PredictHorizons(id, []int{1, 3})
			if err != nil {
				t.Fatal(err)
			}
			for h, fe := range he {
				if ha[h].Mean != fe.Mean || ha[h].Variance != fe.Variance {
					t.Fatalf("step %d sensor %s h=%d: %v vs %v", i, id, h, ha[h], fe)
				}
			}
			if err := exact.Observe(id, all[i]); err != nil {
				t.Fatal(err)
			}
			if err := anySys.Observe(id, all[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// legacySensorCheckpoint and legacyModelState mirror the per-sensor
// checkpoint layout of releases whose index carried a learned
// lower-bound ordering layer: the same fields plus the model's state.
type legacyModelState struct {
	Version int
	Counts  []float64
	Ratios  []float64
	Global  float64
	N       uint64
}

type legacySensorCheckpoint struct {
	ID         string
	History    []float64
	Normalized bool
	Norm       timeseries.Stats
	Cells      []cellCheckpoint
	LBModel    *legacyModelState
}

type legacyCheckpoint struct {
	Version  int
	Sensors  []legacySensorCheckpoint
	WALCover map[int]uint64
}

// TestCheckpointLegacyLBModelLoads: a checkpoint written with the old
// layout, learned-model state populated, still loads — gob skips the
// field the current layout lacks — and the restored system forecasts
// bit-identically to one restored from a current checkpoint.
func TestCheckpointLegacyLBModelLoads(t *testing.T) {
	cfg := smallConfig()
	cfg.Anytime = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(12))
	all := noisySeries(rng, 460)
	if err := sys.AddSensor("a", all[:400]); err != nil {
		t.Fatal(err)
	}
	for i := 400; i < 420; i++ {
		if _, err := sys.Predict("a", 1); err != nil {
			t.Fatal(err)
		}
		if err := sys.Observe("a", all[i]); err != nil {
			t.Fatal(err)
		}
	}
	var cur bytes.Buffer
	if err := sys.SaveTo(&cur); err != nil {
		t.Fatal(err)
	}
	cp, err := decodeCheckpoint(bytes.NewReader(cur.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacyCheckpoint{Version: cp.Version, WALCover: cp.WALCover}
	for _, sc := range cp.Sensors {
		legacy.Sensors = append(legacy.Sensors, legacySensorCheckpoint{
			ID: sc.ID, History: sc.History, Normalized: sc.Normalized, Norm: sc.Norm, Cells: sc.Cells,
			LBModel: &legacyModelState{Version: 1, Counts: make([]float64, 64), Ratios: make([]float64, 64), Global: 1.7, N: 900},
		})
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	var old bytes.Buffer
	old.Write(checkpointMagic[:])
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload.Bytes(), checkpointCRCTable))
	old.Write(crc[:])
	old.Write(payload.Bytes())

	fromCur, err := Load(&cur, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fromCur.Close()
	fromOld, err := Load(&old, cfg)
	if err != nil {
		t.Fatalf("legacy checkpoint with LBModel: %v", err)
	}
	defer fromOld.Close()
	for i := 420; i < 430; i++ {
		want, err := fromCur.Predict("a", 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fromOld.Predict("a", 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mean != want.Mean || got.Variance != want.Variance {
			t.Fatalf("step %d: legacy-restored forecast %v/%v, want %v/%v", i, got.Mean, got.Variance, want.Mean, want.Variance)
		}
		if err := fromCur.Observe("a", all[i]); err != nil {
			t.Fatal(err)
		}
		if err := fromOld.Observe("a", all[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAnytimeDeadlineLadderMAE measures the engine's value claim: at
// every staged deadline, a progressive answer (the verified-so-far
// neighbor set pushed through the real predictor) forecasts better
// than the AR(1) fallback the system would otherwise serve. Budgets
// are deterministic countdown contexts, and every budget runs on its
// own identically seeded System, so no rung's forecasts feed another
// rung's ensemble reweighting. The resulting table is recorded in
// EXPERIMENTS.md.
func TestAnytimeDeadlineLadderMAE(t *testing.T) {
	cfg := smallConfig()
	cfg.Anytime = true
	cfg.Fallback = FallbackAR1
	rng := rand.New(rand.NewSource(13))
	all := noisySeries(rng, 1000)

	// Budget 0 aborts before the filter step completes — every answer
	// is an AR(1) fallback. The rest of the ladder lands mid- or
	// post-verification. Budgets are ctx.Err() call counts: the
	// lower-bound kernel consumes one per block (Omega=8 here), each
	// progressive verify round one more.
	budgets := []int64{0, 9, 10, 12, 16, 1 << 30}
	rungs := make([]ladderRung, len(budgets))
	for bi, b := range budgets {
		rungs[bi] = runLadderRung(t, cfg, all, b)
	}

	if rungs[0].byTag["fallback"] != rungs[0].n {
		t.Fatalf("budget 0 must always fall back, got %v", rungs[0].byTag)
	}
	last := len(budgets) - 1
	if rungs[last].byTag["exact"] != rungs[last].n {
		t.Fatalf("unbounded budget must always be exact, got %v", rungs[last].byTag)
	}
	sawProgressive := false
	fallbackMAE := rungs[0].absErr / float64(rungs[0].n)
	prevEst := -1.0
	for bi := 1; bi < len(budgets); bi++ {
		r := rungs[bi]
		mae := r.absErr / float64(r.n)
		meanEst := r.estSum / float64(r.n)
		t.Logf("budget %10d: MAE %.4f (fallback %.4f)  quality %v  mean estimate %.3f",
			budgets[bi], mae, fallbackMAE, r.byTag, meanEst)
		if r.byTag["progressive"] > 0 {
			sawProgressive = true
		}
		if mae >= fallbackMAE {
			t.Errorf("budget %d: progressive MAE %.4f not better than AR(1) fallback %.4f",
				budgets[bi], mae, fallbackMAE)
		}
		// Quality estimates climb (weakly) with budget: more verified
		// work can only raise the reported confidence.
		if meanEst+1e-9 < prevEst {
			t.Errorf("budget %d: mean quality estimate %.4f fell below previous rung %.4f",
				budgets[bi], meanEst, prevEst)
		}
		prevEst = meanEst
	}
	if !sawProgressive {
		t.Fatal("no staged budget produced a progressive answer — ladder is not exercising the anytime path")
	}
}

// ladderRung accumulates one budget's forecasts.
type ladderRung struct {
	absErr float64
	n      int
	byTag  map[string]int
	estSum float64
}

// runLadderRung builds a fresh System, registers all[:900] and makes
// 60 one-step forecasts, each under a countdown of the given budget,
// observing the truth after each.
func runLadderRung(t *testing.T, cfg Config, all []float64, budget int64) ladderRung {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AddSensor("s", all[:900]); err != nil {
		t.Fatal(err)
	}
	r := ladderRung{byTag: make(map[string]int)}
	for i := 900; i < 960; i++ {
		f, err := sys.PredictCtx(newCountdown(budget), "s", 1)
		if err != nil {
			t.Fatalf("budget %d step %d: %v", budget, i, err)
		}
		r.absErr += math.Abs(f.Mean - all[i])
		r.n++
		tag := f.Quality
		if f.Degraded {
			tag = "fallback"
		}
		r.byTag[tag]++
		r.estSum += f.QualityEstimate
		if err := sys.Observe("s", all[i]); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestExactModeDeadlineNeverPartial pins deadline semantics at the
// public API: in exact (non-anytime) mode a deadline mid-verification
// surfaces as DeadlineExceeded (here: an AR(1) fallback with reason
// "deadline"), never a partial answer.
func TestExactModeDeadlineNeverPartial(t *testing.T) {
	cfg := smallConfig()
	cfg.Fallback = FallbackAR1
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(14))
	all := noisySeries(rng, 960)
	if err := sys.AddSensor("s", all[:900]); err != nil {
		t.Fatal(err)
	}
	for _, b := range []int64{0, 9, 10, 12, 16} {
		f, err := sys.PredictCtx(newCountdown(b), "s", 1)
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("budget %d: %v", b, err)
			}
			continue
		}
		if !f.Degraded && f.Quality == "progressive" {
			t.Fatalf("budget %d: exact-mode system returned a progressive answer: %+v", b, f)
		}
	}
}
