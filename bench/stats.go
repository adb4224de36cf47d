package main

import "sort"

// summary is one metric's samples with their median and quartiles.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, samples []float64) summary {
	q1, med, q3 := quartiles(samples)
	return summary{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// quartiles computes the three cut points the way Python's
// statistics.quantiles(data, n=4) does with its default exclusive
// method, so the benchmark's quartiles match a reader's own. One sample
// is its own quartiles.
func quartiles(xs []float64) (q1, median, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}
