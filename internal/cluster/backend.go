package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"socrm/internal/serve"
)

// Drainer is the backend-side half of graceful removal: POST /admin/drain
// (or SIGTERM in backend mode) flips the server unready, stops admission,
// and streams every resident session to the peers that will own it — the
// same consistent-hash ring the router uses, over the same peer URLs, so
// sessions land exactly where the router's next probe will look for them.
type Drainer struct {
	Server *serve.Server
	// Self is this backend's own advertised URL, excluded from targets.
	Self string
	// Peers are the other backends' base URLs (the same list every cluster
	// member and the router were started with).
	Peers []string
	// VNodes must match the router's ring construction (<=0 = DefaultVNodes).
	VNodes int
	// Peer performs the readiness checks and handoffs; its Timeout bounds
	// each call (0 = 5s).
	Peer Peer
}

// refusalLimit is how many import refusals a peer may return during one
// drain before it is skipped for the rest of the pass. A peer at its
// session cap, or drain-gating imports itself, refuses every session —
// without the limit each refusal is retried per session and the drain
// degenerates to local re-imports.
const refusalLimit = 3

// DrainReport summarizes one drain pass.
type DrainReport struct {
	// Drained sessions were handed to a peer.
	Drained int `json:"drained"`
	// Failed sessions could not be placed anywhere and were re-imported
	// locally (they drain on a later pass, or die with the process).
	Failed int `json:"failed"`
	// Remaining sessions are still resident after the pass.
	Remaining int `json:"remaining"`
	// Targets are the ready peers sessions were streamed to.
	Targets []string `json:"targets"`
}

// readyPeers probes the peer list and returns those answering ready,
// excluding self.
func (d *Drainer) readyPeers(peer Peer) []string {
	var up []string
	for _, p := range without(d.Peers, d.Self) {
		if _, status, _, err := peer.Do(context.Background(), http.MethodGet, p+"/readyz", nil, ""); err == nil && status == http.StatusOK {
			up = append(up, p)
		}
	}
	return up
}

// Drain stops admission and streams every session to the ready peers. Each
// session is detached (removed + quiesced + snapshotted in one step — the
// per-session handoff lock), imported at its ring owner among the targets,
// and re-imported locally if every target refuses, so a drain never loses
// a session silently. Sessions keep stepping until the moment their own
// detach, and a step racing its session's handoff fails with a retryable
// conflict that the router's relocation chase absorbs.
func (d *Drainer) Drain() (DrainReport, error) {
	d.Server.BeginDrain()
	peer := d.Peer.orDefault(5 * time.Second)
	targets := d.readyPeers(peer)
	rep := DrainReport{Targets: targets}
	if len(targets) == 0 {
		rep.Remaining = d.Server.SessionCount()
		return rep, fmt.Errorf("drain: no ready peers; %d sessions stay resident", rep.Remaining)
	}
	ring := NewRing(targets, d.VNodes)
	// refusals counts import rejections per reachable peer across the whole
	// pass; a peer past the limit is skipped for every later session.
	refusals := make(map[string]int, len(targets))
	for _, id := range d.Server.SessionIDs() {
		snapData, err := d.Server.DetachSession(id)
		if err != nil {
			// Already gone (closed or migrated away concurrently).
			continue
		}
		if d.place(peer, ring, id, snapData, refusals) {
			rep.Drained++
		} else {
			// Nobody took it: bring it home rather than drop it. The local
			// import bypasses the draining gate by design.
			if _, err := d.Server.ImportSession(snapData); err != nil {
				// The snapshot came from this very server moments ago; an
				// import failure here means the session is truly lost.
				rep.Failed++
				continue
			}
			rep.Failed++
		}
	}
	rep.Remaining = d.Server.SessionCount()
	return rep, nil
}

// place imports the snapshot at its ring owner, then at every other target,
// skipping peers that already refused refusalLimit imports this pass.
func (d *Drainer) place(peer Peer, ring *Ring, id string, snapData []byte, refusals map[string]int) bool {
	targets := append([]string{ring.Owner(id)}, ring.Nodes()...)
	tried := map[string]bool{}
	for _, t := range targets {
		if t == "" || tried[t] || refusals[t] >= refusalLimit {
			continue
		}
		tried[t] = true
		_, status, _, err := peer.Do(context.Background(), http.MethodPost,
			t+"/v1/sessions/import", snapData, "application/octet-stream")
		if err == nil && status == http.StatusCreated {
			return true
		}
		// Unreachable counts too: a dead peer should stop eating one
		// timeout per remaining session.
		refusals[t]++
	}
	return false
}

// BackendHandler wraps a backend's serving routes with the cluster admin
// surface: POST /admin/drain runs the drainer and reports what moved.
func BackendHandler(d *Drainer) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", d.Server.Handler())
	mux.HandleFunc("POST /admin/drain", func(w http.ResponseWriter, _ *http.Request) {
		rep, err := d.Drain()
		status := http.StatusOK
		if err != nil {
			status = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"drained":%d,"failed":%d,"remaining":%d}`+"\n",
			rep.Drained, rep.Failed, rep.Remaining)
	})
	return mux
}
