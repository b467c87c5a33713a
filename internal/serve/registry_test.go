package serve

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"socrm/internal/soc"
	"socrm/internal/workload"
)

func TestRegistryRoundsShardsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {17, 32}, {64, 64},
	} {
		r := newRegistry(tc.in, 10)
		if len(r.shards) != tc.want {
			t.Errorf("newRegistry(%d): %d shards, want %d", tc.in, len(r.shards), tc.want)
		}
	}
	if r := newRegistry(0, 10); len(r.shards) < 8 {
		t.Errorf("auto shard count %d, want >= 8", len(r.shards))
	}
}

func TestRegistryInsertGetRemoveAcrossShards(t *testing.T) {
	r := newRegistry(8, 1000)
	const n = 500
	for i := 0; i < n; i++ {
		if r.insert(&Session{ID: fmt.Sprintf("s-%d", i)}) != insertOK {
			t.Fatalf("insert %d refused below the limit", i)
		}
	}
	if r.len() != n {
		t.Fatalf("len = %d, want %d", r.len(), n)
	}
	// Every shard should hold a reasonable share: FNV over "s-<n>" must not
	// collapse onto a few shards.
	for i := range r.shards {
		if got := len(r.shards[i].m); got == 0 {
			t.Fatalf("shard %d empty after %d inserts", i, n)
		}
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s-%d", i)
		if r.get(id) == nil {
			t.Fatalf("get(%s) = nil", id)
		}
	}
	if r.get("s-missing") != nil {
		t.Fatal("get of unknown id returned a session")
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s-%d", i)
		if r.remove(id) == nil {
			t.Fatalf("remove(%s) = nil", id)
		}
	}
	if r.len() != 0 {
		t.Fatalf("len = %d after removing everything", r.len())
	}
	if r.remove("s-0") != nil {
		t.Fatal("double remove returned a session")
	}
}

func TestRegistryEnforcesLimitUnderConcurrency(t *testing.T) {
	r := newRegistry(16, 64)
	var wg sync.WaitGroup
	var accepted sync.Map
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("s-%d-%d", w, i)
				if r.insert(&Session{ID: id}) == insertOK {
					accepted.Store(id, true)
				}
			}
		}(w)
	}
	wg.Wait()
	count := 0
	accepted.Range(func(_, _ any) bool { count++; return true })
	if count != 64 || r.len() != 64 {
		t.Fatalf("accepted %d sessions (len %d), want exactly the limit 64", count, r.len())
	}
}

// TestShardedRegistrySoak is the -race proof for the sharded hot path:
// concurrent create/step/delete through the direct API, policy reloads and
// metrics scrapes all running against the same registry.
func TestShardedRegistrySoak(t *testing.T) {
	srv, ts, path := newTestServer(t, func(o *Options) {
		o.Shards = 8
		o.MaxSessions = 1 << 10
	})
	polA, polB, _ := fixtures(t)
	p := soc.NewXU3()
	app := workload.MiBench(9)[0]

	rounds, steps := 6, 40
	if testing.Short() {
		rounds, steps = 2, 10
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				created, err := srv.CreateSession(CreateRequest{Policy: PolicyOfflineIL})
				if err != nil {
					t.Errorf("worker %d: create: %v", w, err)
					return
				}
				cfg := p.Clamp(created.Start)
				for i := 0; i < steps; i++ {
					res := p.Execute(app.Snippets[i%len(app.Snippets)], cfg)
					tel := StepTelemetry{Counters: res.Counters, Config: cfg, Threads: 1, EnergyJ: res.Energy}
					next, _, err := srv.Step(created.ID, &tel)
					if err != nil {
						t.Errorf("worker %d: step: %v", w, err)
						return
					}
					if !p.Valid(next) {
						t.Errorf("worker %d: invalid config %+v", w, next)
						return
					}
					cfg = next
				}
				if _, err := srv.CloseSession(created.ID); err != nil {
					t.Errorf("worker %d: close: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // the policy pusher
		defer wg.Done()
		for i := 0; i < 3*rounds; i++ {
			next := polA
			if i%2 == 0 {
				next = polB
			}
			writeAtomic(t, path, next)
			if err := srv.Reload(); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // the scraper
		defer wg.Done()
		for i := 0; i < 3*rounds; i++ {
			resp, err := ts.Client().Get(ts.URL + "/metrics")
			if err != nil {
				t.Errorf("scrape %d: %v", i, err)
				return
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
	if srv.SessionCount() != 0 {
		t.Fatalf("%d sessions leaked after soak", srv.SessionCount())
	}
}

// TestReloadKeepsInFlightSessions pins the hot-reload contract: swapping
// the policy file must not drop or corrupt sessions created before the
// reload — they keep stepping on the generation they were born with.
func TestReloadKeepsInFlightSessions(t *testing.T) {
	srv, _, path := newTestServer(t, nil)
	_, polB, _ := fixtures(t)
	p := soc.NewXU3()
	app := workload.MiBench(4)[1]

	const nSessions = 6
	ids := make([]string, nSessions)
	cfgs := make([]soc.Config, nSessions)
	for i := range ids {
		created, err := srv.CreateSession(CreateRequest{Policy: PolicyOfflineIL})
		if err != nil {
			t.Fatal(err)
		}
		ids[i], cfgs[i] = created.ID, p.Clamp(created.Start)
	}
	stepAll := func(times int) {
		for k := 0; k < times; k++ {
			for i, id := range ids {
				res := p.Execute(app.Snippets[k%len(app.Snippets)], cfgs[i])
				tel := StepTelemetry{Counters: res.Counters, Config: cfgs[i], Threads: 1}
				next, _, err := srv.Step(id, &tel)
				if err != nil {
					t.Fatalf("session %s after reload cycle: %v", id, err)
				}
				cfgs[i] = next
			}
		}
	}
	stepAll(5)
	genBefore := srv.store.Generation()
	writeAtomic(t, path, polB)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if srv.store.Generation() != genBefore+1 {
		t.Fatalf("generation = %d, want %d", srv.store.Generation(), genBefore+1)
	}
	if srv.SessionCount() != nSessions {
		t.Fatalf("reload dropped sessions: count = %d, want %d", srv.SessionCount(), nSessions)
	}
	stepAll(5)
	for _, id := range ids {
		info, err := srv.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Steps != 10 {
			t.Fatalf("session %s: steps = %d, want 10 (reload corrupted state)", id, info.Steps)
		}
	}
}

// TestBatchStepEndpoint drives POST /v1/step/batch over HTTP: entries for
// several live sessions plus one dead id, which must fail in-band without
// failing the tick.
func TestBatchStepEndpoint(t *testing.T) {
	srv, ts, _ := newTestServer(t, nil)
	hc := ts.Client()
	p := soc.NewXU3()
	app := workload.MiBench(6)[0]

	var req BatchRequest
	for i := 0; i < 3; i++ {
		created, err := srv.CreateSession(CreateRequest{Policy: PolicyOfflineIL})
		if err != nil {
			t.Fatal(err)
		}
		cfg := p.Clamp(created.Start)
		entry := BatchEntry{Session: SessionRef(created.ID)}
		for k := 0; k < 4; k++ {
			res := p.Execute(app.Snippets[k], cfg)
			entry.Steps = append(entry.Steps, StepTelemetry{
				Counters: res.Counters, Config: cfg, Threads: 1, EnergyJ: res.Energy,
			})
		}
		req.Entries = append(req.Entries, entry)
	}
	req.Entries = append(req.Entries, BatchEntry{Session: SessionRef("s-missing"), Steps: req.Entries[0].Steps})

	var resp BatchResponse
	if err := call(hc, "POST", ts.URL+"/v1/step/batch", req, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(resp.Results))
	}
	for i := 0; i < 3; i++ {
		r := resp.Results[i]
		if r.Error != "" {
			t.Fatalf("entry %d failed: %s", i, r.Error)
		}
		if len(r.Configs) != 4 || r.Step != 4 {
			t.Fatalf("entry %d: %d configs, step %d, want 4/4", i, len(r.Configs), r.Step)
		}
		for _, cfg := range r.Configs {
			if !p.Valid(cfg) {
				t.Fatalf("entry %d returned invalid config %+v", i, cfg)
			}
		}
	}
	if !strings.Contains(resp.Results[3].Error, "no session") {
		t.Fatalf("dead entry error = %q, want in-band no-session error", resp.Results[3].Error)
	}
	// An empty batch is a client bug, not a no-op.
	if err := call(hc, "POST", ts.URL+"/v1/step/batch", BatchRequest{}, nil); err == nil {
		t.Fatal("empty batch must be rejected")
	}
}

// TestStepBatchReusesResults pins the allocation contract of the direct
// batch API: passing results[:0] back in must reuse the slots and their
// Configs storage while producing fresh, correct values.
func TestStepBatchReusesResults(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	p := soc.NewXU3()
	app := workload.MiBench(2)[0]
	created, err := srv.CreateSession(CreateRequest{Policy: PolicyOfflineIL})
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Clamp(created.Start)
	mkEntries := func() []BatchEntry {
		e := BatchEntry{Session: SessionRef(created.ID)}
		for k := 0; k < 3; k++ {
			res := p.Execute(app.Snippets[k], cfg)
			e.Steps = append(e.Steps, StepTelemetry{Counters: res.Counters, Config: cfg, Threads: 1})
		}
		return []BatchEntry{e, {Session: SessionRef("s-nope")}}
	}
	results := srv.StepBatch(mkEntries(), nil)
	if len(results) != 2 || len(results[0].Configs) != 3 || results[1].Error == "" {
		t.Fatalf("first batch unexpected: %+v", results)
	}
	firstPtr := &results[0]
	results = srv.StepBatch(mkEntries(), results[:0])
	if len(results) != 2 || &results[0] != firstPtr {
		t.Fatal("reused results did not revive the previous slots")
	}
	if len(results[0].Configs) != 3 || results[0].Step != 6 {
		t.Fatalf("second batch: %d configs, step %d, want 3/6", len(results[0].Configs), results[0].Step)
	}
	if results[1].Error == "" || len(results[1].Configs) != 0 {
		t.Fatalf("dead entry not reset on reuse: %+v", results[1])
	}
}

// TestReplayDirectMatchesHTTP pins transport-independence: the same seed
// must produce bit-identical aggregate stats whether the load goes through
// real HTTP or the in-process fast path.
func TestReplayDirectMatchesHTTP(t *testing.T) {
	mk := func() (*Server, *httptest.Server) {
		srv, ts, _ := newTestServer(t, nil)
		return srv, ts
	}
	srvHTTP, ts := mk()
	viaHTTP, err := Replay(ReplayOptions{
		Transport: HTTPTransport{BaseURL: ts.URL, Client: ts.Client()},
		Clients:   4, Steps: 40, Batch: 5, Policy: PolicyOfflineIL, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	srvDirect, _ := mk()
	viaDirect, err := Replay(ReplayOptions{
		Transport: DirectTransport{Server: srvDirect},
		Clients:   4, Steps: 40, Batch: 5, Policy: PolicyOfflineIL, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if viaHTTP.Clients != viaDirect.Clients || viaHTTP.Steps != viaDirect.Steps ||
		viaHTTP.EnergyJ != viaDirect.EnergyJ || viaHTTP.TimeS != viaDirect.TimeS {
		t.Fatalf("transports disagree:\nhttp   %+v\ndirect %+v", viaHTTP, viaDirect)
	}
	if n := srvHTTP.Metrics(); n == nil {
		t.Fatal("nil registry")
	}
	if got, want := srvDirect.DecideLatency().Count(), uint64(4*40); got != want {
		t.Fatalf("direct latency count = %d, want %d", got, want)
	}
}
