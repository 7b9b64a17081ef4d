package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile position — the guide's "samples beyond the tail".
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat
// (100 on every mainstream Linux build).
const clockTicks = 100

// parseStatCPU returns utime+stime in seconds from the text of
// /proc/<pid>/stat. The command name may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return float64(ut+st) / clockTicks, nil
}

// parseVmHWM returns the peak resident set size in MB from the text of
// /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("status VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

// promSamples is one scrape of Prometheus text exposition, keyed by
// the series exactly as printed: name{labels}.
type promSamples map[string]float64

func parseProm(text string) promSamples {
	out := promSamples{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of the named family (all label sets).
func (p promSamples) sum(name string) float64 {
	var s float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// deltaSum is the change of a family's sum (all label sets) between
// two scrapes.
func deltaSum(before, after promSamples, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// phaseMean returns the mean of a histogram's observations between two
// scrapes, in seconds, for the series carrying the given labels.
func phaseMean(before, after promSamples, name, labels string) (float64, float64) {
	s := after[name+"_sum"+labels] - before[name+"_sum"+labels]
	n := after[name+"_count"+labels] - before[name+"_count"+labels]
	if n <= 0 {
		return 0, 0
	}
	return s / n, n
}
