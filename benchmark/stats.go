package main

import (
	"math"
	"sort"
)

// samples collects, per metric name (or part key, see harness.part), one
// value per measurement. Every reported number is an estimator over its
// samples — the median unless the catalogue says otherwise — so a metric
// measured once (a probe, an exact count) and one measured a thousand
// times share one path, and -selfcheck can split any of them into two
// interleaved sets.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// interleaved returns the samples of one of two round-robin sets, dealt
// two at a time: samples 0, 1, 4, 5, ... (which 0) or 2, 3, 6, 7, ...
// (which 1). Pairs, because the host reference is sampled twice running
// between repetitions and the second of a pair finds its array warmer
// than the first: dealt singly, each set would get one kind. A metric
// with a single sample belongs to both sets.
func (s samples) interleaved(which int) samples {
	out := make(samples, len(s))
	for name, vs := range s {
		if len(vs) < 2 {
			out[name] = vs
			continue
		}
		for i, v := range vs {
			if i/2%2 == which || len(vs) < 4 && i%2 == which {
				out[name] = append(out[name], v)
			}
		}
	}
	return out
}

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics; 0 for an empty input. vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// chunkMedians splits vs, in order, into chunks of size (a last chunk under
// half of that joins the one before) and returns each chunk's median: a
// median a few milliseconds of traffic at a time, for the same reason
// harness.part records timings in parts.
func chunkMedians(vs []float64, size int) []float64 {
	var out []float64
	for len(vs) > 0 {
		n := min(size, len(vs))
		if len(vs)-n < size/2 {
			n = len(vs)
		}
		out = append(out, median(vs[:n]))
		vs = vs[n:]
	}
	return out
}

// bestDecile is the 10th percentile of vs counted from the better end.
func bestDecile(vs []float64, better string) float64 {
	if better == "higher" {
		return quantile(vs, 0.9)
	}
	return quantile(vs, 0.1)
}

// safeDiv is a/b, or 0 when b is 0 (a metric with no denominator on this
// workload reads 0, never NaN).
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
