package oracle

import (
	"math"
	"reflect"
	"testing"

	"socrm/internal/soc"
	"socrm/internal/workload"
)

// referenceBest is the Execute-per-config sweep Best ran before
// soc.Platform.Sweep: kept as the reference the kernel must match.
func referenceBest(p *soc.Platform, obj Objective, s workload.Snippet) (soc.Config, soc.Result) {
	configs := p.Configs()
	bestCfg := configs[0]
	bestRes := p.Execute(s, bestCfg)
	bestScore := obj(bestRes.Time, bestRes.Energy)
	for _, c := range configs[1:] {
		r := p.Execute(s, c)
		if sc := obj(r.Time, r.Energy); sc < bestScore {
			bestScore, bestCfg, bestRes = sc, c, r
		}
	}
	return bestCfg, bestRes
}

// referenceTopK is TopK's insertion window over the Execute-per-config sweep.
func referenceTopK(p *soc.Platform, obj Objective, s workload.Snippet, k int) []soc.Config {
	type scored struct {
		cfg   soc.Config
		score float64
	}
	best := make([]scored, 0, k)
	for _, c := range p.Configs() {
		r := p.Execute(s, c)
		sc := obj(r.Time, r.Energy)
		if len(best) < k {
			best = append(best, scored{c, sc})
			for i := len(best) - 1; i > 0 && best[i-1].score > best[i].score; i-- {
				best[i-1], best[i] = best[i], best[i-1]
			}
			continue
		}
		if sc >= best[k-1].score {
			continue
		}
		best[k-1] = scored{c, sc}
		for i := k - 1; i > 0 && best[i-1].score > best[i].score; i-- {
			best[i-1], best[i] = best[i], best[i-1]
		}
	}
	out := make([]soc.Config, len(best))
	for i, b := range best {
		out[i] = b.cfg
	}
	return out
}

// resultBits flattens a Result to the IEEE-754 bits of every field.
func resultBits(r soc.Result) []uint64 {
	out := []uint64{math.Float64bits(r.Time), math.Float64bits(r.Energy), math.Float64bits(r.AvgPower)}
	for _, v := range r.Counters.Vector() {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// TestSweepMatchesReference checks Best and TopK against the
// Execute-per-config reference, bit for bit, on the paper and 25 MHz
// lattices, at the reference, a hot and a clamped-cold temperature, for
// thread counts 1-8 under both objectives.
func TestSweepMatchesReference(t *testing.T) {
	var snippets []workload.Snippet
	for th := 1; th <= 8; th++ {
		s := testSnippet()
		s.Threads = th
		s.MemIntensity = 0.04 * float64(th)
		s.L2MissRate = 0.01 + 0.02*float64(th%3)
		snippets = append(snippets, s)
	}
	for _, step := range []float64{100, 25} {
		// TempRef, a hot die, and a cold one below the tempFac >= 0.5 clamp.
		for _, temp := range []float64{soc.NewXU3().TempRef, 90, -30} {
			p := soc.NewXU3WithStep(step)
			p.Temp = temp
			for _, objName := range []string{ObjEnergy, ObjEDP} {
				o := NewNamed(p, objName)
				for _, s := range snippets {
					cfg, res := o.Best(s)
					wantCfg, wantRes := referenceBest(p, o.Obj, s)
					if cfg != wantCfg || !reflect.DeepEqual(resultBits(res), resultBits(wantRes)) {
						t.Fatalf("step %v temp %v %s threads %d: Best = %v %+v, reference %v %+v",
							step, temp, objName, s.Threads, cfg, res, wantCfg, wantRes)
					}
					if got, want := o.TopK(s, 7), referenceTopK(p, o.Obj, s, 7); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %v temp %v %s threads %d: TopK = %v, reference %v",
							step, temp, objName, s.Threads, got, want)
					}
				}
			}
		}
	}
}
