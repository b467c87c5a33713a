package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples should be 0")
	}
	// p99 of 1,000 samples leaves ten above it.
	var many []float64
	for i := 1; i <= 1000; i++ {
		many = append(many, float64(i))
	}
	if got := percentile(many, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// Lateness and latency are both measured from the due time: a step sent
// 2 ms late that took 1 ms to answer counts 3 ms of latency and 1 ms of
// service time.
func TestLatenessArithmetic(t *testing.T) {
	s := sample{due: 10 * time.Millisecond, sent: 12 * time.Millisecond, done: 13 * time.Millisecond}
	if s.lateness() != 2*time.Millisecond || s.latency() != 3*time.Millisecond || s.service() != time.Millisecond {
		t.Fatalf("lateness %v latency %v service %v", s.lateness(), s.latency(), s.service())
	}
	if got := serviceMS([]sample{s})[0]; got != 1 {
		t.Errorf("serviceMS = %v", got)
	}
	if got := latenessMS([]sample{s})[0]; got != 2 {
		t.Errorf("latenessMS = %v", got)
	}
	if got := latenciesMS([]sample{s})[0]; got != 3 {
		t.Errorf("latenciesMS = %v", got)
	}
}

func TestOpenScheduleRate(t *testing.T) {
	phase := make([]float64, 512)
	for i := range phase {
		phase[i] = float64(i) / 512
	}
	owned := make([]int, 512)
	for i := range owned {
		owned[i] = i
	}
	sched := openSchedule(owned, phase, newRand(1), 2000, 10*time.Second)
	if rate := float64(len(sched)) / 10; math.Abs(rate-2000)/2000 > 0.03 {
		t.Errorf("offered %.0f steps/s, want 2000", rate)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i].at < sched[i-1].at {
			t.Fatal("schedule not sorted by due time")
		}
	}
}
