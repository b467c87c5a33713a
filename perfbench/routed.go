package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"

	"socrm/internal/serve"
	"socrm/internal/soc"
)

// routed-step: an open loop of devices on offline-il sessions, each posting
// single-record steps to the router at its decision period with a seeded
// phase. Two client goroutines, one connection each, send the merged
// schedule; a step is timed from when it was due.
const (
	routedDevices = 512
	routedNominal = 2000.0 // steps/s: one decision per device every 256 ms
	routedLimitMS = 5.0    // p99 limit, <= 2.5% of the 217 ms mean decision period
	routedClients = 2
)

// slot is one scheduled step: when it is due and which device sends it.
type slot struct {
	at  time.Duration
	dev int
}

// openSchedule lays out every step the devices owned by one client send at
// the given aggregate rate over dur. Each device steps at its decision
// period, n/rate, with every gap jittered uniformly by +-50% (snippet
// lengths vary), starting at a seeded share of its first gap. Without the
// jitter the same arrival pattern would repeat every period, and the p99
// would depend on how one seed happened to place the phases.
func openSchedule(owned []int, phase []float64, rnd *rand.Rand, rate float64, dur time.Duration) []slot {
	period := float64(len(phase)) / rate * float64(time.Second)
	gap := func() time.Duration { return time.Duration(period * (0.5 + rnd.Float64())) }
	var out []slot
	for _, d := range owned {
		for at := time.Duration(phase[d] * period); at < dur; at += gap() {
			out = append(out, slot{at: at, dev: d})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// waitUntil sleeps until t with nanosleep, whose wake-up error is tens of
// microseconds; time.Sleep rounds up to the runtime timer's ~0.5 ms
// granularity, which would be charged to every step's latency.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// openLoop is the routed-step load generator.
type openLoop struct {
	env     *clusterEnv
	owned   [routedClients][]int
	phase   []float64
	rnd     *rand.Rand // schedule jitter
	clients [routedClients]serve.HTTPTransport

	mu        sync.Mutex
	attempted int
	failed    int
}

// runPhase sends the schedule for rate over dur from both clients at once.
// record keeps the telemetry for the twin check; tr, when set, records a
// client span per step.
func (g *openLoop) runPhase(rate float64, dur time.Duration, record bool, tr *tracer) []sample {
	p := g.env.p
	scheds := make([][]slot, routedClients)
	for c := range scheds {
		scheds[c] = openSchedule(g.owned[c], g.phase, g.rnd, rate, dur)
	}
	var wg sync.WaitGroup
	out := make([][]sample, routedClients)
	start := time.Now()
	for c := 0; c < routedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tel := make([]serve.StepTelemetry, 1)
			var resp serve.StepResponse
			var attempted, failed int
			ss := make([]sample, 0, len(scheds[c]))
			for _, sl := range scheds[c] {
				waitUntil(start.Add(sl.at))
				sent := time.Since(start)
				d := g.env.devices[sl.dev]
				tel[0] = d.next(p, record)
				attempted++
				var cs time.Duration
				if tr != nil {
					cs = tr.since()
				}
				err := g.clients[c].Step(d.id, tel, &resp)
				done := time.Since(start)
				if tr != nil {
					tr.add(span{Name: "client", ReqID: d.id, Start: cs, End: tr.since(), Items: 1})
				}
				if err != nil {
					failed++
					if record {
						d.sentIdx, d.sentCfg = d.sentIdx[:len(d.sentIdx)-1], d.sentCfg[:len(d.sentCfg)-1]
					}
					continue
				}
				d.adopt(p, resp.Config, record)
				ss = append(ss, sample{due: sl.at, sent: sent, done: done})
			}
			out[c] = ss
			g.mu.Lock()
			g.attempted += attempted
			g.failed += failed
			g.mu.Unlock()
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, ss := range out {
		all = append(all, ss...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].due < all[j].due })
	return all
}

type routedSizes struct {
	devices int
	nominal float64
}

func runRoutedStep(cfg runConfig) (*report, error) {
	sz := routedSizes{devices: routedDevices, nominal: routedNominal}
	if cfg.tiny {
		sz = routedSizes{devices: 16, nominal: 200}
	}
	rnd := newRand(cfg.seed)
	genStart := time.Now()
	devices := makeDevices(cfg.seed, sz.devices, rnd.Intn)
	phase := make([]float64, sz.devices)
	for i := range phase {
		phase[i] = rnd.Float64()
	}
	genMS := ms(time.Since(genStart))

	env, setupS, err := setupMedian(servingSetupReps, func() (*clusterEnv, error) {
		return startCluster(cfg.tmp, serve.PolicyOfflineIL, 0, devices, stepReqID)
	}, (*clusterEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	g := &openLoop{env: env, phase: phase, rnd: newRand(cfg.seed)}
	for i := range devices {
		g.owned[i%routedClients] = append(g.owned[i%routedClients], i)
	}
	for c := range g.clients {
		hc := newClient()
		defer hc.CloseIdleConnections()
		g.clients[c] = serve.HTTPTransport{BaseURL: env.front.URL, Client: hc}
	}

	rep := newReport()
	g.runPhase(sz.nominal, warmup, true, nil)
	if !cfg.trace {
		cpu0, alloc0 := cpuTime(), heapAllocBytes()
		samples := g.runPhase(sz.nominal, cfg.duration, true, nil)
		cpu, alloc := cpuTime()-cpu0, heapAllocBytes()-alloc0
		if len(samples) == 0 {
			return nil, errNoWork
		}
		lat := latenciesMS(samples)
		rep.timing("step latency from due", lat)
		rep.timing("generator lateness", latenessMS(samples))
		rep.note("p99 from due %.3f ms against the %.0f ms limit", percentile(lat, 0.99), routedLimitMS)
		rep.note("steps per CPU-second: %.1f", float64(len(samples))/cpu.Seconds())
		rep.endToEnd("step service time", serviceMS(samples), setupS, alloc/float64(len(samples)))
	} else {
		half := cfg.duration / 2
		base := g.runPhase(sz.nominal, half, true, nil)
		tr := newTracer()
		env.trace.Store(tr)
		traced := g.runPhase(sz.nominal, half, true, tr)
		env.trace.Store(nil)
		if len(base) == 0 || len(traced) == 0 {
			return nil, errNoWork
		}
		servingLayers(rep, env, tr)
		late := latenessMS(base)
		rep.set("gen.late_p50_ms", median(late), "ms")
		rep.set("gen.late_p99_ms", percentile(late, 0.99), "ms")
		traceOverhead(rep, serviceMS(base), serviceMS(traced))
		rep.set("workload.gen_ms", genMS, "ms")
		if err := writeSpans(rep, tr, cfg, "routed-step"); err != nil {
			return nil, err
		}
	}
	rep.Attempted, rep.Failed = g.attempted, g.failed
	c := env.counters()
	rep.check(int(c.steps) == g.attempted, "backends decided %d steps, %d attempted", int(c.steps), g.attempted)
	if err := twinCheck(rep, env, serve.PolicyOfflineIL); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := asyncTrainPhase(rep, cfg, g, sz.nominal); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// asyncTrainPhase measures the il.train_* layers: the same open loop on
// online-il sessions, on a cluster of its own whose backends train on
// socserved's default single background worker. How much training that
// worker does depends on how fast the host runs, so it is traced, not
// timed for the end-to-end metrics.
func asyncTrainPhase(rep *report, cfg runConfig, g *openLoop, rate float64) error {
	env, err := startCluster(cfg.tmp, serve.PolicyOnlineIL, 1, g.env.devices, stepReqID)
	if err != nil {
		return err
	}
	defer env.close()
	g.env = env
	for c := range g.clients {
		g.clients[c].BaseURL = env.front.URL
	}
	before := g.attempted
	g.runPhase(rate, cfg.duration/2, false, nil)
	c := env.counters()
	rep.check(int(c.steps) == g.attempted-before, "online-il backends decided %d steps, %d attempted", int(c.steps), g.attempted-before)
	trainLayers(rep, c)
	rep.Attempted, rep.Failed = g.attempted, g.failed
	return nil
}

// twinCheck replays every device's recorded telemetry into a fresh
// in-process server through serve.DirectTransport and requires the same
// decision sequence bit for bit: the router and HTTP hops must not change
// what the governor decides.
func twinCheck(rep *report, env *clusterEnv, policy string) error {
	srv := serve.New(serve.Options{Platform: env.p, Store: env.store, MaxSessions: len(env.devices) + 1})
	defer srv.Close()
	direct := serve.DirectTransport{Server: srv}
	var resp serve.StepResponse
	tel := make([]serve.StepTelemetry, 1)
	mismatched, steps := 0, 0
	for i, d := range env.devices {
		seed := policySeed + int64(i)
		created, err := direct.Create(serve.CreateRequest{Policy: policy, Seed: &seed})
		if err != nil {
			return fmt.Errorf("twin session: %w", err)
		}
		for k, idx := range d.sentIdx {
			sn := d.pool[idx]
			res := env.p.Execute(sn, d.sentCfg[k])
			tel[0] = serve.StepTelemetry{Counters: res.Counters, Config: d.sentCfg[k], Threads: sn.Threads,
				TimeS: res.Time, EnergyJ: res.Energy}
			if err := direct.Step(created.ID, tel, &resp); err != nil {
				return fmt.Errorf("twin step: %w", err)
			}
			steps++
			if k >= len(d.got) || resp.Config != d.got[k] {
				mismatched++
				break
			}
		}
	}
	rep.note("twin check: %d devices, %d steps replayed in-process", len(env.devices), steps)
	rep.check(mismatched == 0, "%d sessions decided differently over router+HTTP than in-process", mismatched)
	rep.check(steps > 0, "twin check replayed no steps")
	return nil
}

// validConfigs reports whether every configuration is legal on p.
func validConfigs(p *soc.Platform, cfgs []soc.Config) bool {
	for _, c := range cfgs {
		if !p.Valid(c) {
			return false
		}
	}
	return true
}
