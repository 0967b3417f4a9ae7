package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of vs (mean of the two middle values
// for an even count), or 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile returns the q-quantile of vs by linear interpolation between
// the closest ranks (the "inclusive" method). vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// spread is the interquartile range of vs as a share of its median — the
// run-to-run (or slice-to-slice) noise figure every bound is compared
// against. Quartiles follow Python's statistics.quantiles(n=4), the
// "exclusive" method, so the number matches what the driver computes.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := quantileSorted(s, 0.5)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// tailNote applies the choosing-metrics percentile rule — report the
// highest percentile that still has ten samples beyond it — to a
// percentile fixed in advance: it returns a warning when n samples leave
// fewer than ten beyond quantile q, and "" when the percentile is
// supported.
func tailNote(n int, q float64) string {
	if beyond := float64(n) * (1 - q); beyond < 10 {
		return fmt.Sprintf("p%g with only %.1f samples beyond it", q*100, beyond)
	}
	return ""
}

// sliceStat condenses one metric's per-slice samples: the metric's value
// is the median of the per-slice values, so one scheduler stall inside a
// window moves one slice, not the result.
type sliceStat struct {
	Value  float64   // median of Slices
	Slices []float64 // one value per slice that had samples
	N      int       // samples behind all slices together
	Note   string    // e.g. the percentile label actually used
}

// slicedPercentiles computes, for per-slice latency samples (ns), each
// slice's median and its tailQ-quantile, and returns their across-slice
// medians in the unit given by div (1e3 for µs, 1e6 for ms). The tail's
// note says so when the thinnest slice cannot support the percentile.
func slicedPercentiles(slices [][]float64, tailQ, div float64) (p50, tail sliceStat) {
	minN := 0
	for _, s := range slices {
		if len(s) == 0 {
			continue
		}
		if minN == 0 || len(s) < minN {
			minN = len(s)
		}
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		p50.Slices = append(p50.Slices, quantileSorted(sorted, 0.5)/div)
		tail.Slices = append(tail.Slices, quantileSorted(sorted, tailQ)/div)
		p50.N += len(s)
		tail.N += len(s)
	}
	p50.Value, tail.Value = median(p50.Slices), median(tail.Slices)
	tail.Note = tailNote(minN, tailQ)
	return p50, tail
}

// slicedRate turns per-slice counts into per-second rates and their
// median.
func slicedRate(counts []float64, sliceSec float64) sliceStat {
	st := sliceStat{}
	for _, c := range counts {
		st.Slices = append(st.Slices, c/sliceSec)
		st.N += int(c)
	}
	st.Value = median(st.Slices)
	return st
}

func fmtValue(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1e6:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
