package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"socrm/internal/cluster"
	"socrm/internal/serve"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// The serving workloads stand up the cluster tier in-process on loopback,
// the way the cluster tests do: two backends (serve.Server behind
// cluster.BackendHandler) and a probed cluster.Router in front. Backends
// are configured like `socserved -mode backend` with its defaults: a
// bootstrapped policy file, warm online models.

// policySeed fixes the bootstrap policy and warm models: they are the
// deployment, not the workload; --seed varies the devices' traces.
const policySeed = 42

type backend struct {
	srv *serve.Server
	ts  *httptest.Server
}

// clusterEnv is one running serving tier plus the client-side devices.
type clusterEnv struct {
	p        *soc.Platform
	store    *serve.PolicyStore
	backends []backend
	rt       *cluster.Router
	front    *httptest.Server
	devices  []*device
	// trace is attached to the router and backend boundaries while set.
	trace atomic.Pointer[tracer]
}

// device is one simulated phone: a walk through the workload suite's
// snippets, executed under whatever configuration the governor chose last.
type device struct {
	id   string
	pool []workload.Snippet // shared by every device
	off  int
	pos  int
	cfg  soc.Config
	// Sent and received configurations, recorded for the twin check.
	sentIdx []int32
	sentCfg []soc.Config
	got     []soc.Config
}

// next executes the device's next snippet under its current configuration
// and returns the telemetry to post.
func (d *device) next(p *soc.Platform, record bool) serve.StepTelemetry {
	i := (d.off + d.pos) % len(d.pool)
	d.pos++
	sn := d.pool[i]
	res := p.Execute(sn, d.cfg)
	if record {
		d.sentIdx = append(d.sentIdx, int32(i))
		d.sentCfg = append(d.sentCfg, d.cfg)
	}
	return serve.StepTelemetry{Counters: res.Counters, Config: d.cfg, Threads: sn.Threads,
		TimeS: res.Time, EnergyJ: res.Energy}
}

// adopt applies a decided configuration.
func (d *device) adopt(p *soc.Platform, cfg soc.Config, record bool) {
	if record {
		d.got = append(d.got, cfg)
	}
	d.cfg = p.Clamp(cfg)
}

// writePolicy bootstraps the policy file the way `socserved -bootstrap`
// does.
func writePolicy(p *soc.Platform, dir string) (string, error) {
	var buf bytes.Buffer
	if err := serve.WriteBootstrapPolicy(&buf, p, policySeed, 4, 24); err != nil {
		return "", fmt.Errorf("bootstrap policy: %w", err)
	}
	path := filepath.Join(dir, "policy.json")
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// newBackendServer builds one backend daemon over the policy file, with
// trainWorkers background trainers for online-il sessions (0 trains inside
// the decide path, like `socserved -train-workers 0`).
func newBackendServer(p *soc.Platform, policyPath string, trainWorkers int) (*serve.Server, *serve.PolicyStore, error) {
	store := serve.NewPolicyStore(policyPath, p)
	if err := store.Load(); err != nil {
		return nil, nil, err
	}
	srv := serve.New(serve.Options{
		Platform:     p,
		Store:        store,
		Models:       serve.WarmModels(p, policySeed, 40),
		MaxSessions:  1024,
		SeedBase:     policySeed,
		TrainWorkers: trainWorkers,
	})
	return srv, store, nil
}

// stepReqID identifies a single-step request by its session id.
func stepReqID(r *http.Request) (string, int, bool) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/sessions/")
	if !ok {
		return "", 0, false
	}
	id, ok := strings.CutSuffix(rest, "/step")
	return id, 1, ok
}

// startCluster brings up two backends and a router, then creates one
// session per device through the router.
func startCluster(tmp string, policy string, trainWorkers int, devices []*device, reqID func(*http.Request) (string, int, bool)) (*clusterEnv, error) {
	dir, err := os.MkdirTemp(tmp, "cluster-")
	if err != nil {
		return nil, err
	}
	env := &clusterEnv{p: soc.NewXU3(), devices: devices}
	policyPath, err := writePolicy(env.p, dir)
	if err != nil {
		return nil, err
	}
	urls := make([]string, 2)
	drainers := make([]*cluster.Drainer, 2)
	for i := range urls {
		srv, store, err := newBackendServer(env.p, policyPath, trainWorkers)
		if err != nil {
			env.close()
			return nil, err
		}
		env.store = store
		drainers[i] = &cluster.Drainer{Server: srv}
		h := tracePoint{name: "backend", cur: &env.trace, reqID: reqID}.wrap(cluster.BackendHandler(drainers[i]))
		ts := httptest.NewServer(h)
		env.backends = append(env.backends, backend{srv: srv, ts: ts})
		drainers[i].Self = ts.URL
		urls[i] = ts.URL
	}
	for _, d := range drainers {
		d.Peers = urls
	}
	env.rt = cluster.NewRouter(cluster.RouterOptions{Backends: urls})
	if !env.rt.Probe() {
		env.close()
		return nil, fmt.Errorf("router probe found no backends")
	}
	env.front = httptest.NewServer(tracePoint{name: "router", cur: &env.trace, reqID: reqID}.wrap(env.rt.Handler()))
	hc := newClient()
	defer hc.CloseIdleConnections()
	tr := serve.HTTPTransport{BaseURL: env.front.URL, Client: hc}
	for i, d := range devices {
		seed := policySeed + int64(i)
		created, err := tr.Create(serve.CreateRequest{Policy: policy, Seed: &seed})
		if err != nil {
			env.close()
			return nil, fmt.Errorf("creating session %d: %w", i, err)
		}
		d.id = created.ID
		d.cfg = env.p.Clamp(created.Start)
		d.pos = 0
		d.sentIdx, d.sentCfg, d.got = d.sentIdx[:0], d.sentCfg[:0], d.got[:0]
	}
	return env, nil
}

// newClient is one client connection's worth of HTTP transport.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
		},
	}
}

func (env *clusterEnv) close() {
	if env.front != nil {
		env.front.Close()
	}
	for _, b := range env.backends {
		b.ts.Close()
		b.srv.Close()
	}
}

// makeDevices builds n devices whose traces start at seeded offsets into the
// sixteen-application suite generated from seed.
func makeDevices(seed int64, n int, rnd func(int) int) []*device {
	var pool []workload.Snippet
	for _, app := range workload.AllApps(seed) {
		pool = append(pool, app.Snippets...)
	}
	devs := make([]*device, n)
	for i := range devs {
		devs[i] = &device{pool: pool, off: rnd(len(pool))}
	}
	return devs
}

// servingCounters sums the serving tier's own metric series.
type servingCounters struct {
	steps, serveSheds, trainSwaps, trainSamples, trainDropped float64
	routerRetries, routerSheds                                float64
	decideSum, decideCount                                    float64
	decideP50, decideP99                                      float64 // step-weighted over backends, seconds
}

func (env *clusterEnv) counters() servingCounters {
	var c servingCounters
	for _, b := range env.backends {
		reg := b.srv.Metrics()
		c.steps += reg.Counter("socserved_steps_total", "").Value()
		c.serveSheds += reg.Meter("socserved_step_shed_total", "").Value()
		c.trainSwaps += reg.Counter("socserved_train_policy_swaps_total", "").Value()
		c.trainSamples += reg.Counter("socserved_train_samples_total", "").Value()
		c.trainDropped += reg.Meter("socserved_train_dropped_experiences_total", "").Value()
		h := b.srv.DecideLatency()
		n := float64(h.Count())
		c.decideSum += h.Sum()
		c.decideCount += n
		c.decideP50 += n * h.Quantile(0.5)
		c.decideP99 += n * h.Quantile(0.99)
	}
	if c.decideCount > 0 {
		c.decideP50 /= c.decideCount
		c.decideP99 /= c.decideCount
	}
	reg := env.rt.Metrics()
	c.routerRetries = reg.Counter("socrouted_retries_total", "").Value()
	c.routerSheds = reg.Counter("socrouted_backend_sheds_total", "").Value() + reg.Meter("socrouted_step_shed_total", "").Value()
	return c
}
