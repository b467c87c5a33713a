package oracle

import (
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// SwitchCost models the overhead of changing configuration between
// snippets: a fixed DVFS transition energy plus a per-knob-step component
// (voltage-regulator ramp, core on/off latencies). With a nonzero switch
// cost, per-snippet greedy optima are no longer globally optimal, which is
// why Section IV-A1 notes that Oracle construction "can involve the use of
// dynamic programming".
type SwitchCost struct {
	FixedJ   float64 // charged whenever the configuration changes at all
	PerStepJ float64 // per unit of L1 distance in knob space
}

// Cost returns the energy charged for switching a -> b.
func (sc SwitchCost) Cost(a, b soc.Config) float64 {
	d := absInt(a.LittleFreqIdx-b.LittleFreqIdx) + absInt(a.BigFreqIdx-b.BigFreqIdx) +
		absInt(a.NLittle-b.NLittle) + absInt(a.NBig-b.NBig)
	if d == 0 {
		return 0
	}
	return sc.FixedJ + float64(d)*sc.PerStepJ
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// SequencePlan is the output of the DP Oracle.
type SequencePlan struct {
	Configs []soc.Config
	Energy  float64 // total objective including switch costs
}

// PlanSequence computes the switch-cost-aware optimal configuration
// sequence over an application via dynamic programming on a pruned
// candidate set (the top-k configurations of each snippet). With k equal
// to 1 it degenerates to the greedy per-snippet Oracle.
func (o *Oracle) PlanSequence(app workload.Application, sc SwitchCost, k int) SequencePlan {
	n := len(app.Snippets)
	if n == 0 {
		return SequencePlan{}
	}
	if k < 1 {
		k = 1
	}
	cands := make([][]soc.Config, n)
	costs := make([][]float64, n)
	for i, s := range app.Snippets {
		cands[i] = o.TopK(s, k)
		costs[i] = make([]float64, len(cands[i]))
		for j, c := range cands[i] {
			costs[i][j] = o.score(o.P.Execute(s, c))
		}
	}
	// Forward DP.
	dp := make([][]float64, n)
	back := make([][]int, n)
	dp[0] = append([]float64(nil), costs[0]...)
	back[0] = make([]int, len(costs[0]))
	for i := 1; i < n; i++ {
		dp[i] = make([]float64, len(cands[i]))
		back[i] = make([]int, len(cands[i]))
		for j := range cands[i] {
			best, bestFrom := 0.0, -1
			for f := range cands[i-1] {
				v := dp[i-1][f] + sc.Cost(cands[i-1][f], cands[i][j])
				if bestFrom < 0 || v < best {
					best, bestFrom = v, f
				}
			}
			dp[i][j] = best + costs[i][j]
			back[i][j] = bestFrom
		}
	}
	// Trace back.
	bestJ, bestV := 0, dp[n-1][0]
	for j, v := range dp[n-1] {
		if v < bestV {
			bestJ, bestV = j, v
		}
	}
	plan := SequencePlan{Configs: make([]soc.Config, n), Energy: bestV}
	j := bestJ
	for i := n - 1; i >= 0; i-- {
		plan.Configs[i] = cands[i][j]
		j = back[i][j]
	}
	return plan
}
