package main

import (
	"fmt"
	"math"
	"sort"
)

// sample collects observations of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	return v
}

// median is the middle observation (mean of the two middle ones for an
// even count); NaN when empty.
func (s sample) median() float64 {
	v := s.sorted()
	n := len(v)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return v[n/2]
	default:
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// mean is the arithmetic mean; NaN when empty.
func (s sample) mean() float64 {
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// tailPercentiles are the candidate tail statistics, highest first.
var tailPercentiles = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// tail returns the highest candidate percentile with at least ten
// observations beyond it, its nearest-rank value and its label. With
// fewer than 20 observations no percentile qualifies and the maximum is
// reported as "max".
func (s sample) tail() (float64, string) {
	v := s.sorted()
	n := len(v)
	if n == 0 {
		return math.NaN(), "none"
	}
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return v[rank-1], fmt.Sprintf("p%g", p)
		}
	}
	return v[n-1], "max"
}

// p50Metric summarises s as its median.
func (s sample) p50Metric(name, unit string) metric {
	m := metric{Name: name, Value: s.median(), Unit: unit, N: len(s), Stat: "p50"}
	if len(s) <= maxKeptSamples {
		m.Samples = append([]float64(nil), s...)
	}
	return m
}

// maxKeptSamples bounds the observations a report keeps per metric.
const maxKeptSamples = 32

// tailMetric summarises s as its tail percentile.
func (s sample) tailMetric(name, unit string) metric {
	v, label := s.tail()
	return metric{Name: name, Value: v, Unit: unit, N: len(s), Stat: label}
}

func countMetric(name string, v float64, unit string) metric {
	return metric{Name: name, Value: v, Unit: unit, N: 1, Stat: "count"}
}

func valueMetric(name string, v float64, unit, stat string, n int) metric {
	return metric{Name: name, Value: v, Unit: unit, N: n, Stat: stat}
}
