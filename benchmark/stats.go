package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the guide's rule for a tail percentile: report the highest
// percentile that still has at least this many samples beyond it.
const minBeyond = 10

// percentile returns the q-quantile (nearest-rank, ceil convention) of an
// ascending-sorted sample; 0 for an empty one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// supported reports whether the q-quantile of n samples has at least
// minBeyond samples strictly beyond it.
func supported(n int, q float64) bool {
	if n == 0 {
		return false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	return n-1-idx >= minBeyond
}

// steadySlices is the most consecutive sub-windows a percentile or a rate
// is taken over, and sliceBeyond the fewest samples a sub-window keeps
// beyond its quantile, so that no single slow op is a sub-window's tail.
const (
	steadySlices = 16
	sliceBeyond  = 2
)

// steadyPercentile is the q-quantile of a window's latencies in its
// quietest stretch, in milliseconds: the samples, in arrival order, are
// cut into up to steadySlices consecutive sub-windows — as many as still
// leave each one sliceBeyond samples beyond the quantile — and the lowest
// of the sub-windows' quantiles is returned. The shared host's
// interference comes in bursts of seconds and only ever adds latency, so
// the quietest sub-window is the steadiest estimate of the program's own
// latency; what the program itself does to its tail (GC, queueing) recurs
// in every sub-window and stays in the number. With too few samples for
// two sub-windows it is the plain quantile.
func steadyPercentile(samples []sample, q float64) float64 {
	ordered := append([]sample(nil), samples...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].end.Before(ordered[j].end) })
	need := 1
	for need-int(math.Ceil(q*float64(need))) < sliceBeyond {
		need++
	}
	k := len(ordered) / need
	if k > steadySlices {
		k = steadySlices
	}
	if k < 1 {
		k = 1
	}
	best := math.Inf(1)
	for i := 0; i < k; i++ {
		chunk := ordered[i*len(ordered)/k : (i+1)*len(ordered)/k]
		lat := make([]float64, len(chunk))
		for j, s := range chunk {
			lat[j] = ms(s.lat)
		}
		sort.Float64s(lat)
		best = math.Min(best, percentile(lat, q))
	}
	return best
}

// highest is the largest of v, 0 for none: the rate of a window's
// quietest stretch, as steadyPercentile is its latency.
func highest(v []float64) float64 {
	best := 0.0
	for _, x := range v {
		best = math.Max(best, x)
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so the spread the
// benchmark prints is the spread its driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
