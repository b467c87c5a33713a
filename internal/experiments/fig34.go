package experiments

import (
	"slices"

	"socrm/internal/control"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// AccuracyPoint is one sample of the Figure 3 convergence trace.
type AccuracyPoint struct {
	Time     float64 // seconds of workload execution
	Accuracy float64 // smoothed agreement with the Oracle, percent
}

// Fig3Result is the online-IL vs RL convergence comparison on the unseen
// Cortex+PARSEC application sequence.
type Fig3Result struct {
	IL []AccuracyPoint
	RL []AccuracyPoint

	ILConvergeTime float64 // first time smoothed IL accuracy >= 95%
	RLConverged    bool    // whether RL ever reached 95%
	TotalTime      float64 // length of the sequence under online-IL
	ILFinalAcc     float64
	RLFinalAcc     float64
}

// Fig4Row is one benchmark of Figure 4: energy of each adaptive policy
// normalized by the Oracle.
type Fig4Row struct {
	App   string
	Group string // "offline" (training suite) or "online" (unseen apps)
	IL    float64
	RL    float64
}

// adaptiveDecider is an adaptive controller that also exposes its raw
// policy decision (not the executed configuration) for Oracle-agreement
// tracking.
type adaptiveDecider interface {
	control.Decider
	PolicyConfig(st control.State) soc.Config
}

// accuracyRun executes the sequence under the controller while recording
// the smoothed policy-vs-Oracle agreement per decision.
func (s *Study) accuracyRun(seq *workload.Sequence, dec adaptiveDecider, window int) (control.RunResult, []AccuracyPoint) {
	// Per-snippet Oracle configurations for the whole sequence.
	oracleCfg := make([]soc.Config, 0, seq.Len())
	for _, app := range seq.Apps {
		for _, l := range s.Labels(app.Name) {
			oracleCfg = append(oracleCfg, l.Cfg)
		}
	}
	var pts []AccuracyPoint
	var hits []float64
	run := control.RunWithHook(s.P, seq, dec, s.defaultStart(), func(st control.State, _ soc.Config) {
		target := oracleCfg[st.Snippet+1]
		pol := dec.PolicyConfig(st)
		hits = append(hits, knobAgreement(pol, target))
		lo := len(hits) - window
		if lo < 0 {
			lo = 0
		}
		sum := 0.0
		for _, v := range hits[lo:] {
			sum += v
		}
		pts = append(pts, AccuracyPoint{Accuracy: 100 * sum / float64(len(hits)-lo)})
	})
	// Fill in the time axis now that per-snippet times are known: the
	// decision after snippet i happens at the end of snippet i.
	cum := 0.0
	for i := range pts {
		cum += run.PerSnippetTime[i]
		pts[i].Time = cum
	}
	return run, pts
}

// fig3Window is the number of decisions the Figure 3 accuracy is smoothed
// over.
const fig3Window = 10

// deployment is one closed-loop run of a freshly built adaptive controller:
// online IL or the Q-table, on the offline (Mi-Bench) or the online
// (Cortex+PARSEC) sequence. Runs on the online sequence also carry the
// Figure 3 accuracy trace.
type deployment struct {
	il, online bool
	run        control.RunResult
	pts        []AccuracyPoint
}

// deploymentTable holds the four deployments Figures 3 and 4 read.
type deploymentTable struct {
	offlineIL, offlineRL, onlineIL, onlineRL deployment
}

// onlineApps is the unseen Cortex+PARSEC sequence of Figures 3 and 4.
func (s *Study) onlineApps() []workload.Application {
	return append(append([]workload.Application{}, s.Cortex...), s.Parsec...)
}

// deploymentTable runs the four deployments once per study, on the worker
// pool, and returns them to every later caller. Each job builds its own
// controller from the study's deterministic seeds. The accuracy hook of
// the online runs only reads the learners, so those runs are the plain
// closed-loop runs Figure 4 needs as well.
func (s *Study) deploymentTable() *deploymentTable {
	s.deployOnce.Do(func() {
		offline := workload.NewSequence(s.MiBench...)
		online := workload.NewSequence(s.onlineApps()...)
		// Online IL on the training suite is the longest job; it goes
		// first so the pool does not finish on it.
		cells := []deployment{{il: true}, {il: true, online: true}, {}, {online: true}}
		runs := MapJobs(s.workers(), cells, func(_ int, d deployment) deployment {
			var dec adaptiveDecider
			if d.il {
				dec = s.FreshOnlineIL()
			} else {
				dec = s.FreshQTable(6)
			}
			if d.online {
				d.run, d.pts = s.accuracyRun(online, dec, fig3Window)
			} else {
				d.run = control.Run(s.P, offline, dec, s.defaultStart())
			}
			return d
		})
		s.deploy = &deploymentTable{offlineIL: runs[0], onlineIL: runs[1], offlineRL: runs[2], onlineRL: runs[3]}
	})
	return s.deploy
}

// Fig3 reproduces the convergence comparison: both policies were trained
// offline on Mi-Bench; the sequence is the four Cortex-like apps followed
// by the two PARSEC-like apps. The paper reports online-IL converging to
// ~100% Oracle agreement within ~6 s (4% of the sequence) while RL never
// converges.
func (s *Study) Fig3() Fig3Result {
	// Copies, so a caller that edits its result cannot change the table.
	t := s.deploymentTable()
	ilPts, rlPts := slices.Clone(t.onlineIL.pts), slices.Clone(t.onlineRL.pts)

	res := Fig3Result{IL: ilPts, RL: rlPts, TotalTime: t.onlineIL.run.Time}
	res.ILConvergeTime = -1
	for _, p := range ilPts {
		if p.Accuracy >= 95 {
			res.ILConvergeTime = p.Time
			break
		}
	}
	for _, p := range rlPts {
		if p.Accuracy >= 95 {
			res.RLConverged = true
			break
		}
	}
	if n := len(ilPts); n > 0 {
		res.ILFinalAcc = ilPts[n-1].Accuracy
	}
	if n := len(rlPts); n > 0 {
		res.RLFinalAcc = rlPts[n-1].Accuracy
	}
	return res
}

// Fig4 reproduces the per-benchmark energy comparison. The "offline" group
// replays the training suite; the "online" group is the unseen
// Cortex+PARSEC sequence of Figure 3. Energy is accumulated per
// application during the sequence runs and normalized by the per-app
// Oracle energy.
func (s *Study) Fig4() []Fig4Row {
	t := s.deploymentTable()
	rows := make([]Fig4Row, 0, 16)
	collect := func(apps []workload.Application, group string, il, rl deployment) {
		ilPer := il.run.PerAppEnergy(len(apps))
		rlPer := rl.run.PerAppEnergy(len(apps))
		for i, app := range apps {
			orc := s.OracleEnergy(app.Name)
			rows = append(rows, Fig4Row{
				App:   app.Name,
				Group: group,
				IL:    ilPer[i] / orc,
				RL:    rlPer[i] / orc,
			})
		}
	}
	collect(s.MiBench, "offline", t.offlineIL, t.offlineRL)
	collect(s.onlineApps(), "online", t.onlineIL, t.onlineRL)
	return rows
}
