package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// sample is a set of measurements of one quantity in one unit.
type sample []float64

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile interpolates linearly between order statistics (the same rule
// as Python's statistics.quantiles with method="inclusive").
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append(sample(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// tail returns the highest of the p90/p99/p99.9 percentiles that still has
// at least ten samples above it, so a reported tail is never one outlier.
// ok is false when the sample is too small for even the p90.
func (s sample) tail() (label string, v float64, ok bool) {
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(len(s))*(1-p.q) >= 10 {
			return p.label, s.quantile(p.q), true
		}
	}
	return "", 0, false
}

// describe renders a timing with its sample count and its tail.
func (s sample) describe(unit string) string {
	out := fmt.Sprintf("p50 %.4g %s, n=%d", s.median(), unit, len(s))
	if label, v, ok := s.tail(); ok {
		out += fmt.Sprintf(", %s %.4g %s", label, v, unit)
	} else {
		out += ", no percentile above p50 has 10 samples beyond it"
	}
	return out
}

// format renders every value of the sample in order.
func (s sample) format() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3g", v)
	}
	b.WriteByte(']')
	return b.String()
}
