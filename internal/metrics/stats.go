package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds order statistics of a sample of trial measurements.
type Summary struct {
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
	P95    float64 `json:"p95"`
	Max    float64 `json:"max"`
}

// Summarize computes order statistics of values. A nil or empty input yields
// a zero Summary.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, v := range sorted {
		sum += v
		sumSq += float64(v * v)
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - float64(mean*mean)
	if variance < 0 {
		variance = 0 // floating point guard
	}
	return Summary{
		Count:  len(sorted),
		Mean:   mean,
		Stddev: math.Sqrt(variance),
		Min:    sorted[0],
		Median: Quantile(sorted, 0.5),
		P90:    Quantile(sorted, 0.9),
		P95:    Quantile(sorted, 0.95),
		Max:    sorted[len(sorted)-1],
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted sample
// using linear interpolation between closest ranks. It panics on an empty
// sample or out-of-range q — both indicate harness bugs.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("metrics: quantile of empty sample")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("metrics: quantile %v outside [0,1]", q))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// FractionWithin returns the fraction of values that are ≤ bound: the
// empirical success rate at an analytic bound. An empty sample returns 0.
func FractionWithin(values []float64, bound float64) float64 {
	if len(values) == 0 {
		return 0
	}
	within := 0
	for _, v := range values {
		if v <= bound {
			within++
		}
	}
	return float64(within) / float64(len(values))
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f sd=%.1f min=%.1f med=%.1f p95=%.1f max=%.1f",
		s.Count, s.Mean, s.Stddev, s.Min, s.Median, s.P95, s.Max)
}

// WilsonInterval returns the Wilson score confidence interval for a
// binomial proportion: successes out of n trials at confidence level given
// by the normal quantile z (1.96 for 95%). Experiment tables report raw
// success rates; this interval is what a reader should attach to them given
// the finite trial counts. It returns (0,1) degenerately for n = 0.
func WilsonInterval(successes, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	if successes < 0 || successes > n {
		panic(fmt.Sprintf("metrics: wilson interval with %d successes of %d", successes, n))
	}
	p := float64(successes) / float64(n)
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	margin := float64(z / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)))
	lo = center - margin
	hi = center + margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
