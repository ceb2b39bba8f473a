package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailRanks are the percentile ranks a tail may be reported at, highest
// first.
var tailRanks = []float64{99.9, 99.5, 99, 98, 97.5, 95, 90, 80, 75, 50}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, with its rank and the number of samples beyond it. With
// fewer than twenty samples no rank qualifies and the maximum is
// returned at rank 100.
func tail(xs []float64) (value, rank float64, beyond int) {
	n := len(xs)
	for _, p := range tailRanks {
		k := int(math.Ceil(p / 100 * float64(n)))
		if n-k >= 10 {
			return quantile(xs, p/100), p, n - k
		}
	}
	return quantile(xs, 1), 100, 0
}

// setJobLatency records job_p50_s and job_tail_s of the latencies, the
// tail with its rank and the number of samples beyond it.
func setJobLatency(m *metricSet, lats []float64, where string) {
	m.set("job_p50_s", median(lats), len(lats), where)
	v, rank, beyond := tail(lats)
	m.set("job_tail_s", v, len(lats), fmt.Sprintf("p%g, %d beyond, %s", rank, beyond, where))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procHWM returns a process's peak resident set size (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
