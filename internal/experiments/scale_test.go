package experiments

import (
	"runtime"
	"testing"

	"socrm/internal/oracle"
)

// TestGoldenScaleDigests pins a small scale sweep (25 MHz lattice, both
// objectives, three snippets per app) to digests recorded before the Oracle
// sweep kernel replaced the Execute-per-config loop. The cache tests only
// compare cold and warm runs of one build; this catches drift on the EDP
// objective and on the fine lattice across builds.
func TestGoldenScaleDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests recorded on amd64; GOARCH=%s may fuse floating-point ops", runtime.GOARCH)
	}
	res, err := ScaleSweep(ScaleOptions{
		Seed:        42,
		FreqStepMHz: 25,
		MaxSnippets: 3,
		Objectives:  []string{oracle.ObjEnergy, oracle.ObjEDP},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		oracle.ObjEnergy: "7f709afcc254181875730d881092e788",
		oracle.ObjEDP:    "764a1a8447676ff1449499320671edcb",
	}
	if len(res.PerObjective) != len(want) {
		t.Fatalf("got %d objectives, want %d", len(res.PerObjective), len(want))
	}
	for _, o := range res.PerObjective {
		if o.Digest != want[o.Objective] {
			t.Errorf("%s scale digest drifted from the pre-kernel golden:\n got  %s\n want %s", o.Objective, o.Digest, want[o.Objective])
		}
	}
}
