package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"socrm/internal/chaos"
	"socrm/internal/ckpt"
	"socrm/internal/metrics"
	"socrm/internal/serve"
	"socrm/internal/soc"
)

// countingTransport counts every request it carries before handing it on.
type countingTransport struct {
	n    atomic.Int64
	next http.RoundTripper
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.next.RoundTrip(r)
}

// countRequests counts in n every request h serves.
func countRequests(n *atomic.Int64, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		h.ServeHTTP(w, r)
	})
}

// TestPeerCarriesEveryCall: the router, the drainer, the replicator and
// recovery make every backend call through the Peer they are handed. Each
// phase must send requests through the counting transport, and at the end
// the backends must have served exactly as many requests as it carried —
// one call on any other client would show up as a surplus.
func TestPeerCarriesEveryCall(t *testing.T) {
	p := soc.NewXU3()
	tr := &countingTransport{next: http.DefaultTransport}
	peer := Peer{Client: &http.Client{Transport: tr}}
	var served atomic.Int64

	srvs := make([]*serve.Server, 2)
	drainers := make([]*Drainer, 2)
	urls := make([]string, 2)
	for i := range srvs {
		srvs[i] = serve.New(serve.Options{Platform: p})
		t.Cleanup(srvs[i].Close)
		drainers[i] = &Drainer{Server: srvs[i], Peer: peer}
		ts := httptest.NewServer(countRequests(&served, BackendHandler(drainers[i])))
		t.Cleanup(ts.Close)
		drainers[i].Self = ts.URL
		urls[i] = ts.URL
	}
	for _, d := range drainers {
		d.Peers = urls
	}
	phase := func(name string, run func()) {
		t.Helper()
		before := tr.n.Load()
		run()
		if tr.n.Load() == before {
			t.Fatalf("%s sent no request through the supplied Peer", name)
		}
	}

	// Router: probe, create and step through the front door.
	rt := NewRouter(RouterOptions{Backends: urls, Peer: peer})
	t.Cleanup(rt.Stop)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	var created serve.CreateResponse
	phase("router", func() {
		if !rt.Probe() {
			t.Fatal("initial probe built no ring")
		}
		if code := postJSON(t, front.URL+"/v1/sessions", serve.CreateRequest{Policy: "interactive"}, &created); code != http.StatusCreated {
			t.Fatalf("create = %d", code)
		}
		if code, _ := stepOnce(t, front.URL, created.ID); code != http.StatusOK {
			t.Fatalf("step = %d", code)
		}
	})

	// Drainer: readiness checks and the handoff import.
	home := 0
	if srvs[1].SessionCount() == 1 {
		home = 1
	}
	phase("drainer", func() {
		rep, err := drainers[home].Drain()
		if err != nil || rep.Drained != 1 {
			t.Fatalf("drain = %+v, %v; want 1 drained", rep, err)
		}
	})
	other := 1 - home

	// Replicator: a push and a replica fetch.
	src := serve.New(serve.Options{Platform: p})
	t.Cleanup(src.Close)
	if _, err := src.CreateSession(serve.CreateRequest{Policy: "interactive", ID: "rep-1"}); err != nil {
		t.Fatal(err)
	}
	snap, err := src.ExportSession("rep-1")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	repl := NewReplicator(ReplicatorOptions{Self: urls[home], Peers: urls, Fanout: 1, Peer: peer, Registry: reg})
	t.Cleanup(repl.Stop)
	phase("replicator", func() {
		repl.Push("rep-1", snap)
		pushed := reg.Counter("socserved_replica_pushed_total", "")
		waitFor(t, 5*time.Second, "replica push", func() bool { return pushed.Value() == 1 })
		if got := repl.PeerReplicas("rep-1"); len(got) != 1 {
			t.Fatalf("PeerReplicas = %d replicas, want 1", len(got))
		}
	})

	// Recover: the session that now lives on the other backend is found
	// there through the Peer and skipped.
	store := checkpointed(t, srvs[other], created.ID)
	restarted := serve.New(serve.Options{Platform: p})
	t.Cleanup(restarted.Close)
	phase("recover", func() {
		rep, err := Recover(restarted, store, "http://self", urls, peer)
		if err != nil || rep.Skipped != 1 || rep.Restored != 0 {
			t.Fatalf("recover = %+v, %v; want the live session skipped", rep, err)
		}
	})

	if got, want := served.Load(), tr.n.Load(); got != want {
		t.Fatalf("backends served %d requests, the supplied Peer carried %d", got, want)
	}
}

// TestRecoverThroughPartitionedPeer: recovery's liveness checks use the
// Peer's transport, so a peer on the far side of a partition is not
// consulted — the only copy this backend can vouch for is its checkpoint,
// and the session is restored rather than skipped.
func TestRecoverThroughPartitionedPeer(t *testing.T) {
	p := soc.NewXU3()
	live := serve.New(serve.Options{Platform: p})
	t.Cleanup(live.Close)
	if _, err := live.CreateSession(serve.CreateRequest{Policy: "interactive", ID: "s-0"}); err != nil {
		t.Fatal(err)
	}
	liveTS := httptest.NewServer(live.Handler())
	t.Cleanup(liveTS.Close)
	store := checkpointed(t, live, "s-0")

	inj := chaos.New(chaos.Options{Seed: 1})
	inj.SetPartition(strings.TrimPrefix(liveTS.URL, "http://"))
	tr := &countingTransport{next: inj.Transport(nil)}
	srv := serve.New(serve.Options{Platform: p})
	t.Cleanup(srv.Close)
	rep, err := Recover(srv, store, "http://self", []string{liveTS.URL}, Peer{Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Restored != 1 || rep.Skipped != 0 {
		t.Fatalf("recover = restored %d skipped %d, want 1/0", rep.Restored, rep.Skipped)
	}
	if tr.n.Load() == 0 || inj.Partitioned.Load() == 0 {
		t.Fatalf("liveness check bypassed the supplied transport (carried %d, partitioned %d)",
			tr.n.Load(), inj.Partitioned.Load())
	}
	if _, err := srv.Info("s-0"); err != nil {
		t.Fatalf("session not restored: %v", err)
	}
}

// checkpointed returns a fresh checkpoint store holding one record of
// session id, exported from src.
func checkpointed(t *testing.T, src *serve.Server, id string) *ckpt.Store {
	t.Helper()
	snap, err := src.ExportSession(id)
	if err != nil {
		t.Fatal(err)
	}
	store, err := ckpt.Open(ckpt.Options{Dir: t.TempDir(), Sync: ckpt.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if err := store.Append(id, snap); err != nil {
		t.Fatal(err)
	}
	return store
}
