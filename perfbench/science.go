package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"time"

	"socrm/internal/experiments"
	"socrm/internal/il"
	"socrm/internal/memo"
	"socrm/internal/oracle"
	"socrm/internal/regtree"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// The repro workload runs the paper pipeline through the experiments
// package: each operation is a full cold reproduction into a fresh on-disk
// memo cache. Every operation's results are digested and compared with the
// values recorded for its seed.

// phases of one reproduction, in socrepro -exp all order.
var reproPhases = []string{"study", "fig2", "table2", "fig3", "fig4", "fig5"}

// paperSeed is the experiment seed of the paper reproduction (socrepro's
// default). repro always runs it: other seeds change how much work Fig3 and
// Fig4 do by up to 25%, which would read as run-to-run noise. --seed
// therefore does not change its inputs; its outputs are checked against the
// digests recorded for it.
const paperSeed = 42

func digest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%v", v))))[:16]
}

// reproRun is one reproduction's outcome.
type reproRun struct {
	wall    time.Duration
	phase   map[string]time.Duration
	cpu     map[string]time.Duration
	digests map[string]string
	stats   memo.Stats
	apps    []workload.Application // the study's suites, in AllApps order
}

// reproduce runs every paper artifact once through cache, timing each phase
// (as a span when tr is set).
func reproduce(seed int64, maxSnippets int, cache *memo.Cache, tr *tracer) (reproRun, error) {
	out := reproRun{phase: map[string]time.Duration{}, cpu: map[string]time.Duration{}, digests: map[string]string{}}
	var study *experiments.Study
	var err error
	timed := func(name string, fn func()) {
		c0 := cpuTime()
		out.phase[name] = tr.time("experiments."+name, fn)
		out.cpu[name] = cpuTime() - c0
	}
	start := time.Now()
	timed("fig2", func() { out.digests["Fig2"] = digest(experiments.Fig2(seed)) })
	timed("study", func() {
		study, err = experiments.NewStudy(experiments.Options{Seed: seed, MaxSnippets: maxSnippets, Workers: nproc(), Cache: cache})
	})
	if err != nil {
		return out, err
	}
	out.apps = append(append(append(out.apps, study.MiBench...), study.Cortex...), study.Parsec...)
	timed("table2", func() { out.digests["Table2"] = digest(study.Table2()) })
	timed("fig3", func() { out.digests["Fig3"] = digest(study.Fig3()) })
	timed("fig4", func() { out.digests["Fig4"] = digest(study.Fig4()) })
	timed("fig5", func() {
		opt := experiments.DefaultFig5Options()
		opt.Seed, opt.Workers, opt.Cache = seed, nproc(), cache
		var res experiments.Fig5Result
		res, err = experiments.Fig5(opt)
		out.digests["Fig5"] = digest(res)
	})
	out.wall = time.Since(start)
	out.stats = cache.Stats()
	return out, err
}

// newCache opens a memo cache over dir.
func newCache(dir string) (*memo.Cache, error) {
	return memo.New(memo.Options{Dir: dir})
}

type reproSizes struct{ maxSnippets int }

func sizesFor(cfg runConfig) reproSizes {
	if cfg.tiny {
		return reproSizes{maxSnippets: 6}
	}
	return reproSizes{}
}

// checkDigests compares a reproduction with the recorded digests.
func checkDigests(rep *report, what string, seed int64, sz reproSizes, got map[string]string) {
	want, ok := recordedRepro[digestKey{seed, sz.maxSnippets}]
	if !ok {
		rep.check(false, "no digests recorded for seed %d, max snippets %d: got %v", seed, sz.maxSnippets, got)
		return
	}
	for name, w := range want {
		rep.check(got[name] == w, "%s %s digest %s, recorded %s", what, name, got[name], w)
	}
}

// opTimes are one run's operation times in ms.
type opTimes struct {
	untraced, traced []float64
}

// measureOps runs op until the run's duration has passed (at least once).
// In a traced run the operations alternate untraced and traced, so the
// difference between the two sets is the tracing overhead rather than a
// drift of the machine over the run; it runs at least one of each.
func measureOps(cfg runConfig, tr *tracer, op func(*tracer) (time.Duration, error)) (opTimes, error) {
	var out opTimes
	minOps := 1
	if cfg.trace {
		minOps = 2
	}
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < cfg.duration; i++ {
		t := tr
		if !cfg.trace || i%2 == 0 {
			t = nil
		}
		d, err := op(t)
		if err != nil {
			return out, err
		}
		if t == nil {
			out.untraced = append(out.untraced, ms(d))
		} else {
			out.traced = append(out.traced, ms(d))
		}
	}
	return out, nil
}

// phaseLayers reports per-phase medians and the process CPU utilization
// over the traced reproductions.
func phaseLayers(rep *report, runs []reproRun) {
	var wall, cpu time.Duration
	for _, name := range reproPhases {
		var secs []float64
		var pw, pc time.Duration
		for _, r := range runs {
			secs = append(secs, r.phase[name].Seconds())
			pw += r.phase[name]
			pc += r.cpu[name]
		}
		wall += pw
		cpu += pc
		rep.set("experiments."+name+"_s", median(secs), "s")
		rep.note("phase %-6s p50 %.4f s  cpu %.0f%% of %d cores  n=%d", name, median(secs), utilPct(pc, pw), nproc(), len(secs))
	}
	rep.set("experiments.cpu_util_pct", utilPct(cpu, wall), "%")
}

func utilPct(cpu, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return 100 * cpu.Seconds() / (wall.Seconds() * float64(nproc()))
}

// memoLayers reports the cache counters of one cold reproduction plus its
// warm replay; bytes is what the cold run cached.
func memoLayers(rep *report, cold, warm memo.Stats) {
	rep.set("memo.hits", float64(cold.Hits+warm.Hits), "count")
	rep.set("memo.misses", float64(cold.Misses+warm.Misses), "count")
	rep.set("memo.disk_hits", float64(cold.DiskHits+warm.DiskHits), "count")
	rep.set("memo.disk_writes", float64(cold.DiskWrites+warm.DiskWrites), "count")
	rep.set("memo.disk_errors", float64(cold.DiskErrors+warm.DiskErrors), "count")
	rep.set("memo.bytes", float64(cold.Bytes), "B")
}

// reproSetup is what a run prepares before its first reproduction.
type reproSetup struct {
	apps []workload.Application
	dir  string
}

func runReproCold(cfg runConfig) (*report, error) {
	seed, sz := int64(paperSeed), sizesFor(cfg)
	// Set-up is what the benchmark needs before its first cold
	// reproduction: the paper suite the study must run on, generated
	// independently to check the study's own, and a fresh scratch directory
	// with a memo cache opened over it, which the first reproduction uses.
	setup, setupS, err := setupMedian(reproSetupReps, func() (reproSetup, error) {
		s := reproSetup{apps: truncateApps(workload.AllApps(seed), sz.maxSnippets)}
		var err error
		if s.dir, err = os.MkdirTemp(cfg.tmp, "memo-"); err == nil {
			_, err = newCache(s.dir)
		}
		return s, err
	}, func(s reproSetup) { os.RemoveAll(s.dir) })
	if err != nil {
		return nil, err
	}
	rep := newReport()
	var traced []reproRun
	var first, warm reproRun
	var allocs []float64 // heap bytes of each untraced cold reproduction
	tr := newTracer()
	ot, err := measureOps(cfg, tr, func(tr *tracer) (time.Duration, error) {
		dir := setup.dir
		if rep.Attempted > 0 {
			var err error
			if dir, err = os.MkdirTemp(cfg.tmp, "memo-"); err != nil {
				return 0, err
			}
		}
		defer os.RemoveAll(dir)
		a0 := heapAllocBytes()
		r, err := reproduceIn(dir, seed, sz, tr)
		if err != nil {
			return 0, err
		}
		if tr == nil {
			allocs = append(allocs, heapAllocBytes()-a0)
		}
		checkDigests(rep, "cold", seed, sz, r.digests)
		rep.check(reflect.DeepEqual(r.apps, setup.apps), "the study's suites differ from workload.AllApps(%d)", seed)
		if rep.Attempted == 0 {
			// A warm replay through a new cache over the same directory
			// must reproduce the cold results from the cache alone. It is
			// not timed: a warm reproduction is ~99.8% Fig3 and Fig4,
			// which the cold one already measures.
			first = r
			if warm, err = reproduceIn(dir, seed, sz, nil); err != nil {
				return 0, err
			}
			for k, v := range r.digests {
				rep.check(warm.digests[k] == v, "warm %s digest %s differs from cold %s", k, warm.digests[k], v)
			}
			rep.check(warm.stats.HitRate() == 100 && warm.stats.DiskWrites == 0,
				"warm replay missed the cache: %v", warm.stats)
		}
		rep.Attempted++
		if tr != nil {
			traced = append(traced, r)
		}
		return r.wall, nil
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.endToEnd("cold reproduction", ot.untraced, setupS, median(allocs))
		return rep, nil
	}
	if len(traced) == 0 {
		return nil, errNoWork
	}
	phaseLayers(rep, traced)
	memoLayers(rep, first.stats, warm.stats)
	rep.set("memo.warm_study_ms", ms(warm.phase["study"]), "ms")
	rep.note("warm replay: %.0f ms, %v", ms(warm.wall), warm.stats)
	traceOverhead(rep, ot.untraced, ot.traced)
	if err := trainProbe(rep, tr, seed, sz); err != nil {
		return nil, err
	}
	return rep, writeSpans(rep, tr, cfg, "repro")
}

// reproduceIn runs one reproduction through a new memo cache over dir.
func reproduceIn(dir string, seed int64, sz reproSizes, tr *tracer) (reproRun, error) {
	cache, err := newCache(dir)
	if err != nil {
		return reproRun{}, err
	}
	return reproduce(seed, sz.maxSnippets, cache, tr)
}

// trainProbe times, from outside, the layers NewStudy runs internally: a
// cold Oracle labelling of every application at the paper lattice, then
// the offline MLP and tree fits on the Mi-Bench dataset.
func trainProbe(rep *report, tr *tracer, seed int64, sz reproSizes) error {
	p := soc.NewXU3()
	genStart := time.Now()
	apps := truncateApps(workload.AllApps(seed), sz.maxSnippets)
	rep.set("workload.gen_ms", ms(time.Since(genStart)), "ms")
	labels := labelProbe(rep, tr, p, apps)
	var ds il.Dataset
	nMi := len(workload.MiBench(seed))
	for i, app := range apps[:nMi] {
		il.AppendDataset(&ds, p, app, labels[i])
	}
	var err error
	d := tr.time("il.train_mlp", func() { _, err = il.TrainMLPPolicy(p, ds, il.DefaultMLPOptions()) })
	if err != nil {
		return err
	}
	rep.set("il.mlp_train_s", d.Seconds(), "s")
	d = tr.time("il.train_tree", func() { _, err = il.TrainTreePolicy(p, ds, regtree.DefaultParams()) })
	rep.set("il.tree_train_s", d.Seconds(), "s")
	return err
}

// labelProbe labels apps with an uncached energy Oracle on the worker-pool
// shape NewStudy uses, reporting the time and the cost per
// configuration evaluated per worker.
func labelProbe(rep *report, tr *tracer, p *soc.Platform, apps []workload.Application) [][]oracle.Label {
	orc := oracle.NewNamed(p, oracle.ObjEnergy)
	pool := nproc()
	inner := (pool + len(apps) - 1) / len(apps)
	var labels [][]oracle.Label
	d := tr.time("oracle.label", func() {
		labels = experiments.MapJobs(pool, apps, func(_ int, app workload.Application) []oracle.Label {
			return orc.LabelAppWith(app, inner)
		})
	})
	snippets := 0
	for _, a := range apps {
		snippets += len(a.Snippets)
	}
	rep.set("oracle.label_s", d.Seconds(), "s")
	rep.set("oracle.ns_per_config", float64(d.Nanoseconds())*float64(pool)/float64(snippets*p.NumConfigs()), "ns")
	return labels
}

func truncateApps(apps []workload.Application, n int) []workload.Application {
	if n <= 0 {
		return apps
	}
	for i := range apps {
		if len(apps[i].Snippets) > n {
			apps[i].Snippets = apps[i].Snippets[:n]
		}
	}
	return apps
}
