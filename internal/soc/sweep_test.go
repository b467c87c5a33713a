package soc

import (
	"math"
	"runtime"
	"testing"

	"socrm/internal/memo"
	"socrm/internal/workload"
)

// Temperatures every sweep test covers: the reference point, a hot die,
// and a cold one whose leakage factor hits the tempFac < 0.5 clamp.
var sweepTemps = []float64{45, 85, -20}

// sweepSnippets spans thread counts 1-8 (under, at and over every core
// count) with the compute- and memory-bound extremes mixed in.
func sweepSnippets() []workload.Snippet {
	out := []workload.Snippet{computeSnippet(), memorySnippet()}
	for th := 1; th <= 8; th++ {
		out = append(out, workload.Snippet{
			Instructions: 100e6,
			MemIntensity: 0.05 + 0.05*float64(th),
			L2MissRate:   0.01 + 0.03*float64(th%4),
			BranchMPKI:   0.5 + float64(th),
			BaseCPI:      0.8 + 0.1*float64(th),
			ILPBigBoost:  1.3 + 0.1*float64(th),
			Threads:      th,
		})
	}
	return out
}

// sweepPlatforms returns the paper lattice and the 25 MHz scale lattice at
// every sweep temperature.
func sweepPlatforms() []*Platform {
	var out []*Platform
	for _, step := range []float64{100, 25} {
		for _, temp := range sweepTemps {
			p := NewXU3WithStep(step)
			p.Temp = temp
			out = append(out, p)
		}
	}
	return out
}

// TestExecuteGoldenDigest pins every field of Execute, bit for bit, over
// both lattices, all sweep temperatures and thread counts 1-8. The digest
// was recorded before Execute was split into the helpers the sweep kernel
// shares, so any drift in the power/performance model fails here.
func TestExecuteGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests recorded on amd64; GOARCH=%s may fuse floating-point ops", runtime.GOARCH)
	}
	h := memo.NewHasher()
	for _, p := range sweepPlatforms() {
		for _, s := range sweepSnippets() {
			for _, c := range p.Configs() {
				r := p.Execute(s, c)
				h.F64(r.Time)
				h.F64(r.Energy)
				h.F64(r.AvgPower)
				h.F64s(r.Counters.Vector())
			}
		}
	}
	const want = "de99fc2027f4d95c3ea62ce1299f21ed"
	if got := h.Sum().Hex(); got != want {
		t.Fatalf("Execute digest drifted from the pre-refactor golden:\n got  %s\n want %s", got, want)
	}
}

// TestSweepMatchesExecute checks that Sweep visits every configuration in
// Configs order and reports Execute's time and energy bit for bit.
func TestSweepMatchesExecute(t *testing.T) {
	for _, p := range sweepPlatforms() {
		configs := p.Configs()
		for _, s := range sweepSnippets() {
			k := 0
			p.Sweep(s, func(b SweepBlock) {
				for i := range b.Time {
					c := b.Config(i)
					if k >= len(configs) || c != configs[k] {
						t.Fatalf("temp %v threads %d: sweep entry %d is %v, Configs has %v", p.Temp, s.Threads, k, c, configs[min(k, len(configs)-1)])
					}
					r := p.Execute(s, c)
					if math.Float64bits(b.Time[i]) != math.Float64bits(r.Time) || math.Float64bits(b.Energy[i]) != math.Float64bits(r.Energy) {
						t.Fatalf("temp %v threads %d %v: sweep (%v s, %v J), Execute (%v s, %v J)", p.Temp, s.Threads, c, b.Time[i], b.Energy[i], r.Time, r.Energy)
					}
					k++
				}
			})
			if k != len(configs) {
				t.Fatalf("sweep visited %d configurations, want %d", k, len(configs))
			}
		}
	}
}
