//go:build !race

package oracle

import (
	"testing"

	"socrm/internal/memo"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// A warm memoized label lookup sits inside the ablation-grid and repeated-
// NewStudy loops thousands of times; its budget is zero allocations — the
// key hashes on the stack, the shard map is keyed by a value type, and the
// cached slice returns by reference. Gated to non-race builds: the race
// runtime instruments allocation.

func TestLabelAppMemoizedWarmAllocFree(t *testing.T) {
	p := soc.NewXU3()
	c, err := memo.New(memo.Options{Version: "alloc"})
	if err != nil {
		t.Fatal(err)
	}
	o := NewNamed(p, ObjEnergy)
	o.Memo = c
	app := testApp(2)
	o.LabelAppWith(app, 1) // cold fill
	if avg := testing.AllocsPerRun(500, func() { o.LabelAppWith(app, 1) }); avg != 0 {
		t.Fatalf("warm memoized LabelAppWith allocates %.1f objects per call, want 0", avg)
	}
}

// A cold label is one Sweep plus one Execute per snippet; the sweep kernel
// keeps its per-OPP terms and result blocks on the stack, so it allocates
// nothing however large the lattice.
func TestBestAllocFree(t *testing.T) {
	o := New(soc.NewXU3WithStep(25), EDP)
	s := workload.MiBench(1)[0].Snippets[0]
	if avg := testing.AllocsPerRun(20, func() { o.Best(s) }); avg != 0 {
		t.Fatalf("Best allocates %.1f objects per call, want 0", avg)
	}
}
