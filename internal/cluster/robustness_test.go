package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socrm/internal/chaos"
	"socrm/internal/ckpt"
	"socrm/internal/serve"
	"socrm/internal/soc"
)

// newHABackends stands up n backends with the full durability stack
// (checkpoint store, replicator fanning to Fanout standbys, checkpointer)
// and no router — callers build their own router tier on top.
func newHABackends(t *testing.T, n, fanout int, ckptInterval time.Duration) []*haBackend {
	t.Helper()
	p := soc.NewXU3()
	backends := make([]*haBackend, n)
	urls := make([]string, n)
	for i := range backends {
		srv := serve.New(serve.Options{Platform: p})
		store, err := ckpt.Open(ckpt.Options{Dir: t.TempDir(), Sync: ckpt.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		dr := &Drainer{Server: srv}
		ts := httptest.NewServer(BackendHandler(dr))
		t.Cleanup(ts.Close)
		dr.Self = ts.URL
		backends[i] = &haBackend{srv: srv, store: store, ts: ts}
		urls[i] = ts.URL
	}
	for i, b := range backends {
		b.repl = NewReplicator(ReplicatorOptions{
			Self:     urls[i],
			Peers:    urls,
			Fanout:   fanout,
			Registry: b.srv.Metrics(),
			OnStale:  b.srv.FenceStale,
		})
		b.srv.SetPeerReplicas(b.repl.PeerReplicas)
		t.Cleanup(b.repl.Stop)
		b.ck = serve.NewCheckpointer(b.srv, serve.CheckpointerOptions{
			Store:    b.store,
			Sink:     b.repl,
			Interval: ckptInterval,
		})
		b.ck.Start()
		t.Cleanup(b.ck.Stop)
		t.Cleanup(func() { b.store.Close() })
	}
	return backends
}

// newRouterTier builds one router per instance tag over the same backends,
// each fronted by its own httptest server.
func newRouterTier(t *testing.T, backends []*haBackend, build func(i int) RouterOptions, nRouters int) ([]*Router, []*httptest.Server) {
	t.Helper()
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.ts.URL
	}
	routers := make([]*Router, nRouters)
	fronts := make([]*httptest.Server, nRouters)
	for i := range routers {
		opt := build(i)
		opt.Backends = urls
		opt.Instance = fmt.Sprintf("%d", i)
		rt := NewRouter(opt)
		if !rt.Probe() {
			t.Fatal("initial probe found no backends")
		}
		t.Cleanup(rt.Stop)
		routers[i] = rt
		fronts[i] = httptest.NewServer(rt.Handler())
		t.Cleanup(fronts[i].Close)
	}
	return routers, fronts
}

// liveCopies counts how many of the given backends hold a live (non-replica)
// copy of id.
func liveCopies(backends []*haBackend, id string) int {
	n := 0
	for _, b := range backends {
		if _, err := b.srv.Info(id); err == nil {
			n++
		}
	}
	return n
}

// TestActiveActiveOverloadSoak is the headline robustness soak: two routers
// on one 3-backend peer set, 2x more concurrent steppers than the routers
// admit, and one backend killed mid-storm. The invariants:
//
//   - zero lost sessions: every session answers a step afterwards;
//   - zero duplicate live sessions: epoch fencing leaves exactly one live
//     copy per session across the surviving backends;
//   - sheds fail fast: overload answers are 429 + Retry-After in bounded
//     time, never queueing behind the storm.
func TestActiveActiveOverloadSoak(t *testing.T) {
	backends := newHABackends(t, 3, 2, 25*time.Millisecond)
	routers, fronts := newRouterTier(t, backends, func(i int) RouterOptions {
		return RouterOptions{
			Peer:         Peer{Timeout: 2 * time.Second},
			RetryBackoff: 5 * time.Millisecond,
			MaxInflight:  4,
			MaxQueue:     2,
			QueueWait:    10 * time.Millisecond,
		}
	}, 2)

	// Both routers create sessions concurrently — instance-tagged ids must
	// never collide.
	const n = 24
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var created serve.CreateResponse
		front := fronts[i%2].URL
		if code := postJSON(t, front+"/v1/sessions",
			serve.CreateRequest{Policy: "interactive"}, &created); code != http.StatusCreated {
			t.Fatalf("create via router %d = %d", i%2, code)
		}
		if !strings.HasPrefix(created.ID, fmt.Sprintf("r%d-", i%2)) {
			t.Fatalf("router %d assigned id %q without its instance tag", i%2, created.ID)
		}
		ids = append(ids, created.ID)
	}

	// Storm phase: 16 steppers against routers that admit 4+2 each — the
	// overflow must shed as fast 429s while admitted traffic proceeds.
	var stop atomic.Bool
	var slowSheds, sheds429, ok200 atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i = (i + 16) % n {
				front := fronts[w%2].URL
				start := time.Now()
				var resp serve.StepResponse
				code := postJSON(t, front+"/v1/sessions/"+ids[i]+"/step", telemetry(), &resp)
				switch code {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests:
					sheds429.Add(1)
					// A shed that took longer than the admission queue wait
					// plus generous slack was queued somewhere unbounded.
					if time.Since(start) > time.Second {
						slowSheds.Add(1)
					}
				}
			}
		}(w)
	}
	time.Sleep(150 * time.Millisecond)

	// Kill one backend mid-storm, abruptly.
	victim := backends[0]
	for _, b := range backends {
		if _, err := b.ck.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	// Kill only once every session live on the victim has a replica parked
	// on a survivor at the victim's epoch or newer: a push still queued at
	// the kill would lose its session.
	replicated := func() bool {
		for _, id := range victim.srv.SessionIDs() {
			info, err := victim.srv.Info(id)
			if err != nil {
				continue // moved off the victim meanwhile
			}
			parked := false
			for _, b := range backends[1:] {
				if e, ok := b.srv.ReplicaEpoch(id); ok && e >= info.Epoch {
					parked = true
					break
				}
			}
			if !parked {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !replicated(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the victim's sessions never all reached a survivor's replica set")
		}
	}
	victim.ck.Stop()
	victim.repl.Stop()
	victim.ts.Close()
	for _, rt := range routers {
		for i := 0; i < 5 && rt.Ring().Has(victim.ts.URL); i++ {
			rt.Probe()
		}
		if rt.Ring().Has(victim.ts.URL) {
			t.Fatal("router never removed the dead backend")
		}
	}

	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if ok200.Load() == 0 {
		t.Fatal("storm made no successful steps; soak proves nothing")
	}
	if slowSheds.Load() != 0 {
		t.Fatalf("%d sheds took > 1s — overload queued instead of failing fast", slowSheds.Load())
	}

	// Every session must answer a step through either router (zero lost) —
	// promotion of the victim's sessions may need a retry while replica
	// queues settle.
	for _, id := range ids {
		recovered := false
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			code, _ := stepOnce(t, fronts[0].URL, id)
			if code == http.StatusOK {
				recovered = true
				break
			}
			if code == http.StatusTooManyRequests {
				time.Sleep(20 * time.Millisecond)
				continue
			}
			for _, rt := range routers {
				rt.Probe()
			}
			time.Sleep(50 * time.Millisecond)
		}
		if !recovered {
			t.Fatalf("session %s lost after backend kill", id)
		}
	}

	// Zero duplicate live sessions across the survivors: epoch fencing must
	// have left exactly one live copy each.
	survivors := backends[1:]
	for _, id := range ids {
		if got := liveCopies(survivors, id); got != 1 {
			t.Fatalf("session %s has %d live copies across survivors, want exactly 1", id, got)
		}
	}

	// The storm must actually have shed — otherwise the admission bound was
	// never exercised — and the router metric must agree.
	if sheds429.Load() == 0 {
		t.Fatal("no 429s observed; overload phase never saturated admission")
	}
	var shedMetric float64
	for _, rt := range routers {
		shedMetric += rt.Metrics().Meter("socrouted_step_shed_total", "").Value()
	}
	if shedMetric == 0 {
		t.Fatal("routers shed no requests by their own accounting")
	}
}

// TestAsymmetricPartitionFencing drives the split-brain scenario the epoch
// fences exist for: router R1 loses sight of backend A (asymmetric — every
// other path stays up), promotes A's session from a standby replica, and for
// a window TWO live copies of one session exist. Replica-push gossip must
// fence the stale copy, and after the partition heals exactly one live copy
// may remain — at the highest epoch, still answering steps.
func TestAsymmetricPartitionFencing(t *testing.T) {
	backends := newHABackends(t, 3, 2, 20*time.Millisecond)

	// R1 dials through a chaos transport we can partition; R2 sees all.
	inj := chaos.New(chaos.Options{Seed: 7})
	routers, fronts := newRouterTier(t, backends, func(i int) RouterOptions {
		opt := RouterOptions{
			Peer:         Peer{Timeout: time.Second},
			ProbeTimeout: 200 * time.Millisecond,
			RetryBackoff: 5 * time.Millisecond,
		}
		if i == 0 {
			opt.Peer.Client = &http.Client{Timeout: 2 * time.Second, Transport: inj.Transport(nil)}
		}
		return opt
	}, 2)
	r1, r2 := routers[0], routers[1]
	front1, front2 := fronts[0].URL, fronts[1].URL

	// Create sessions via R2 until one lands on backend A (its natural ring
	// owner, so no relocation pin shields it from the partition).
	a := backends[0]
	var id string
	for i := 0; i < 128 && id == ""; i++ {
		var created serve.CreateResponse
		if code := postJSON(t, front2+"/v1/sessions",
			serve.CreateRequest{Policy: "interactive"}, &created); code != http.StatusCreated {
			t.Fatalf("create = %d", code)
		}
		if _, err := a.srv.Info(created.ID); err == nil && r2.Ring().Owner(created.ID) == a.ts.URL {
			id = created.ID
		}
	}
	if id == "" {
		t.Fatal("no session landed on backend A as ring owner")
	}
	if code, _ := stepOnce(t, front2, id); code != http.StatusOK {
		t.Fatal("pre-partition step failed")
	}
	// Flush + wait until both standbys hold the replica.
	waitFor(t, 5*time.Second, "replicas parked on both standbys", func() bool {
		a.ck.Flush()
		return backends[1].srv.ReplicaCount() > 0 && backends[2].srv.ReplicaCount() > 0
	})

	// Partition R1 -> A only. R1's probes go silent toward A and evict it;
	// everything else still flows.
	host := strings.TrimPrefix(a.ts.URL, "http://")
	inj.SetPartition(host)
	for i := 0; i < 5 && r1.Ring().Has(a.ts.URL); i++ {
		r1.Probe()
	}
	if r1.Ring().Has(a.ts.URL) {
		t.Fatal("R1 never evicted the partitioned backend")
	}

	// A step via R1 lands on a standby and promotes the replica: the fork.
	waitFor(t, 5*time.Second, "R1 promoted the session on a standby", func() bool {
		code, _ := stepOnce(t, front1, id)
		return code == http.StatusOK && liveCopies(backends[1:], id) == 1
	})
	if got := liveCopies(backends, id); got != 2 {
		t.Fatalf("expected the split-brain fork (2 live copies), found %d", got)
	}

	// Replica-push gossip heals the fork even while the partition holds:
	// the promoted copy (epoch+1) checkpoints, its push reaches A (B->A is
	// NOT partitioned), and A fences its stale live copy.
	waitFor(t, 10*time.Second, "stale copy on A fenced by replica gossip", func() bool {
		stepOnce(t, front1, id) // keep the promoted copy dirty
		for _, b := range backends[1:] {
			b.ck.Flush()
		}
		return liveCopies(backends, id) == 1
	})
	fenced := a.srv.Metrics().Counter("socserved_sessions_fenced_total", "").Value()
	if fenced == 0 {
		t.Fatal("backend A never fenced its stale copy")
	}

	// Heal the partition; R1 re-admits A, both routers converge, and the
	// session keeps answering with exactly one live copy at the end.
	inj.SetPartition()
	waitFor(t, 5*time.Second, "R1 re-admitted the healed backend", func() bool {
		r1.Probe()
		return r1.Ring().Has(a.ts.URL)
	})
	var last uint64
	for i := 0; i < 10; i++ {
		front := fronts[i%2].URL
		code, s := stepOnce(t, front, id)
		if code != http.StatusOK {
			t.Fatalf("post-heal step %d via router %d = %d", i, i%2, code)
		}
		if s <= last {
			t.Fatalf("post-heal step regressed: %d after %d (stale copy answered)", s, last)
		}
		last = s
	}
	waitFor(t, 10*time.Second, "exactly one live copy after heal", func() bool {
		stepOnce(t, front2, id)
		for _, b := range backends {
			b.ck.Flush()
		}
		return liveCopies(backends, id) == 1
	})
}

// TestRouterBatchEntryCapBoundary pins the router-tier entry cap at its
// boundary: the router must refuse an over-cap tick itself (413) instead of
// fanning it out and letting every backend refuse its share.
func TestRouterBatchEntryCapBoundary(t *testing.T) {
	_, _, front := newCluster(t, 1)
	mk := func(n int) serve.BatchRequest {
		entries := make([]serve.BatchEntry, n)
		for i := range entries {
			entries[i] = serve.BatchEntry{Session: serve.SessionRef("absent")}
		}
		return serve.BatchRequest{Entries: entries}
	}
	for _, tc := range []struct{ n, want int }{
		{serve.MaxBatchEntries - 1, http.StatusOK},
		{serve.MaxBatchEntries, http.StatusOK},
		{serve.MaxBatchEntries + 1, http.StatusRequestEntityTooLarge},
	} {
		var out serve.BatchResponse
		if code := postJSON(t, front.URL+"/v1/step/batch", mk(tc.n), &out); code != tc.want {
			t.Fatalf("batch of %d entries via router = %d, want %d", tc.n, code, tc.want)
		}
		if tc.want == http.StatusOK && len(out.Results) != tc.n {
			t.Fatalf("admitted batch returned %d results, want %d", len(out.Results), tc.n)
		}
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
