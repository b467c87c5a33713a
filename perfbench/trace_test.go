package main

import (
	"testing"
	"time"
)

func sp(name, id string, start, end int) span {
	return span{Name: name, ReqID: id, Start: time.Duration(start), End: time.Duration(end), Parent: -1}
}

// Self time subtracts the union of the children's intervals, clipped to
// the parent, counting overlaps once.
func TestSelfTime(t *testing.T) {
	parent := sp("router", "a", 0, 100)
	for _, c := range []struct {
		kids []span
		want time.Duration
	}{
		{nil, 100},
		{[]span{sp("backend", "a", 10, 40)}, 70},
		{[]span{sp("backend", "a", 10, 40), sp("backend", "a", 30, 60)}, 50},
		{[]span{sp("backend", "a", 10, 20), sp("backend", "a", 50, 70)}, 70},
		{[]span{sp("backend", "a", -10, 20), sp("backend", "a", 90, 130)}, 70},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("selfTime(%v) = %v, want %v", c.kids, got, c.want)
		}
	}
}

// Children pair with the parent of the same request id that contains them;
// a child outside every such parent stays unpaired.
func TestPairContained(t *testing.T) {
	tr := &tracer{spans: []span{
		sp("router", "s1", 0, 100),
		sp("router", "s2", 10, 50),
		sp("router", "s1", 200, 300),
		sp("backend", "s1", 220, 280),
		sp("backend", "s2", 20, 40),
		sp("backend", "s1", 10, 90),
		sp("backend", "s1", 150, 160),
	}}
	if n := tr.pairContained("router", "backend"); n != 3 {
		t.Fatalf("paired %d, want 3", n)
	}
	want := []int{-1, -1, -1, 2, 1, 0, -1}
	for i, s := range tr.spans {
		if s.Parent != want[i] {
			t.Errorf("span %d parent %d, want %d", i, s.Parent, want[i])
		}
	}
	self := tr.selfTimesMS("router", "backend")
	if len(self) != 3 || self[0] != 20e-6 || self[1] != 20e-6 || self[2] != 40e-6 {
		t.Errorf("self times %v", self)
	}
}
