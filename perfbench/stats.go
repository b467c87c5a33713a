package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least a q share of the samples at or below it.
// With fewer than 1/(1-q) samples it is the maximum. xs is not modified;
// an empty slice yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one timed open-loop operation: when it was due, when the
// generator actually sent it, and when its reply arrived, all as offsets
// from the phase start.
type sample struct {
	due, sent, done time.Duration
}

// latency is the client-observed time from when the operation was due, so
// a stall that delays later sends is charged to those sends too.
func (s sample) latency() time.Duration { return s.done - s.due }

// service is the time from when the request was sent to when its reply
// arrived: what the program took, without the generator's own lateness.
func (s sample) service() time.Duration { return s.done - s.sent }

// lateness is how far behind its schedule the generator sent it.
func (s sample) lateness() time.Duration { return s.sent - s.due }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latenciesMS, serviceMS and latenessMS project samples to milliseconds.
func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.latency())
	}
	return out
}

func serviceMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.service())
	}
	return out
}

func latenessMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.lateness())
	}
	return out
}
