package main

import (
	"bufio"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pythia/internal/stats"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest sample with at least q of the samples at or below it. Zero
// samples give 0; one sample is every percentile.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(q*float64(n) + 0.999999999) // ceil, tolerant of q*n landing a hair above an integer
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the conventional midpoint median (mean of the two middle
// samples when the count is even) — used for the few-sample timings
// (recoveries, trials, set-up cycles) where nearest-rank would bias high.
// Zero samples give 0.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Percentile(sortedCopy(v), 0.5)
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), because the acceptance rule for this benchmark is
// stated in those terms: spread = (Q3 - Q1) / median.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// canaryMS times a fixed single-threaded hash loop. It does no I/O and
// touches no repo code, so a change in it between the start and the end of
// a run means the box, not the program, got slower.
func canaryMS() float64 {
	t0 := time.Now()
	h := fnv.New64a()
	var buf [64]byte
	for i := 0; i < 200_000; i++ {
		buf[i&63] = byte(i)
		h.Write(buf[:])
	}
	canarySink = h.Sum64()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

var canarySink uint64

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, _ := strconv.ParseFloat(fields[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
