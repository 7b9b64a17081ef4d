package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"smiler"
	"smiler/internal/server"
)

// The canary: a few extra sensors driven over HTTP through a fixed
// observe/forecast sequence after the timed phases, and through the
// same sequence on an in-process smiler.System built with the server's
// configuration. Every served forecast body must equal the reference
// byte for byte (encoding/json prints floats that round-trip exactly).
const (
	canarySensors = 8
	canaryHistory = 512
	canarySteps   = 20
)

func canaryID(i int) string { return fmt.Sprintf("canary%d", i) }

// canaryResult reports the canary check.
type canaryResult struct {
	forecasts  int
	mismatches int
	firstDiff  string
	mae        float64
	attempted  int64
}

// expectedBody is the exact response the server must send for forecast
// f of sensor id at horizon h (z defaults to 1.96 on the server).
func expectedBody(id string, h int, f smiler.Forecast) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(server.MakeForecastResponse(id, h, f, 1.96)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// compareForecast reports whether a served body matches the reference
// forecast bit for bit, with a description of the first difference.
func compareForecast(got []byte, id string, h int, ref smiler.Forecast) (bool, string, error) {
	want, err := expectedBody(id, h, ref)
	if err != nil {
		return false, "", err
	}
	if bytes.Equal(got, want) {
		return true, "", nil
	}
	return false, fmt.Sprintf("%s: served %s, reference %s", id, bytes.TrimSpace(got), bytes.TrimSpace(want)), nil
}

// runCanary drives the canary sequence against the server and the
// reference. Series come from their own seeds so the canary never
// depends on how much of the workload stream the timed phases used.
func runCanary(c *client, seed int64) (canaryResult, error) {
	var res canaryResult
	ref, err := smiler.New(smiler.DefaultConfig())
	if err != nil {
		return res, err
	}
	defer ref.Close()
	ser := make([]*series, canarySensors)
	for i := range ser {
		ser[i] = newSeries(-(seed*7919 + int64(i) + 1))
		// Extend the path past the last step now, so the two
		// sequences below only read it.
		ser[i].at(canaryHistory + canarySteps)
		hist := make([]float64, canaryHistory)
		for t := range hist {
			hist[t] = ser[i].at(t)
		}
		body, err := json.Marshal(server.AddSensorRequest{ID: canaryID(i), History: hist})
		if err != nil {
			return res, err
		}
		res.attempted++
		st, b, err := c.call(http.MethodPost, "/sensors", body)
		if err != nil {
			return res, err
		}
		if st != http.StatusCreated {
			return res, fmt.Errorf("register %s: status %d: %s", canaryID(i), st, b)
		}
		if err := ref.AddSensor(canaryID(i), hist); err != nil {
			return res, err
		}
	}
	// The reference runs the same sequence alongside the HTTP one.
	refs := make([][]smiler.Forecast, canarySteps)
	refErr := make(chan error, 1)
	go func() {
		for step := range refs {
			t := canaryHistory + step
			for i := range ser {
				if err := ref.Observe(canaryID(i), ser[i].at(t)); err != nil {
					refErr <- err
					return
				}
			}
			for i := range ser {
				f, err := ref.Predict(canaryID(i), 1)
				if err != nil {
					refErr <- err
					return
				}
				refs[step] = append(refs[step], f)
			}
		}
		refErr <- nil
	}()
	bodies := make([][][]byte, canarySteps)
	err = func() error {
		for step := range bodies {
			t := canaryHistory + step
			for i := range ser {
				res.attempted++
				if err := okStatus(c.observe(canaryID(i), ser[i].at(t))); err != nil {
					return fmt.Errorf("canary observe: %w", err)
				}
			}
			if err := c.waitApplied(); err != nil {
				return err
			}
			for i := range ser {
				res.attempted++
				st, body, err := c.forecast(canaryID(i))
				if err := okStatus(st, body, err); err != nil {
					return fmt.Errorf("canary forecast: %w", err)
				}
				bodies[step] = append(bodies[step], body)
			}
		}
		return nil
	}()
	if rerr := <-refErr; err == nil {
		err = rerr
	}
	if err != nil {
		return res, err
	}
	var absErr float64
	for step := range bodies {
		t := canaryHistory + step
		for i, body := range bodies[step] {
			f := refs[step][i]
			ok, diff, err := compareForecast(body, canaryID(i), 1, f)
			if err != nil {
				return res, err
			}
			if !ok {
				res.mismatches++
				if res.firstDiff == "" {
					res.firstDiff = diff
				}
			}
			res.forecasts++
			absErr += math.Abs(f.Mean - ser[i].at(t+1))
		}
	}
	res.mae = absErr / float64(res.forecasts)
	return res, nil
}
