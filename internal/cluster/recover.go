package cluster

import (
	"context"
	"net/http"
	"time"

	"socrm/internal/ckpt"
	"socrm/internal/serve"
)

// RecoverReport summarizes a checkpoint-store recovery pass.
type RecoverReport struct {
	// Restored sessions were re-imported from the store.
	Restored int
	// Skipped sessions were found alive on a peer (their replica was
	// promoted while this backend was down) and were NOT re-imported —
	// re-importing would fork the session into two diverging copies.
	Skipped int
	// Damaged carries the store's per-segment damage notes (torn tails,
	// CRC failures, missing segments); intact records were still replayed.
	Damaged []string
}

// Recover replays a backend's checkpoint store into srv at startup. Before
// re-importing each session it asks the peers whether the session is
// already live elsewhere: a crash long enough for the router to fail this
// backend over means the standbys promoted replicas, and the promoted copy
// — which kept stepping — outranks our checkpoint. Such sessions are
// skipped and tombstoned in the store (the live owner checkpoints them
// now). With no peers (standalone), every stored session restores. Each
// liveness check goes through peer, whose Timeout bounds it (0 = 2s).
//
// Callers hold srv in recovering mode (SetRecovering) around this call so
// /readyz stays false until the replay completes.
func Recover(srv *serve.Server, store *ckpt.Store, self string, peers []string, peer Peer) (RecoverReport, error) {
	peer = peer.orDefault(2 * time.Second)
	others := without(peers, self)
	var rep RecoverReport
	var deleteErr error
	restored, damaged, err := srv.RecoverFromStore(store, func(id string) bool {
		if !liveOnPeer(peer, others, id) {
			return false
		}
		rep.Skipped++
		// The live owner checkpoints this session now; drop our stale
		// record so a second restart doesn't re-ask.
		if derr := store.Delete(id); derr != nil && deleteErr == nil {
			deleteErr = derr
		}
		return true
	})
	rep.Restored, rep.Damaged = restored, damaged
	if err != nil {
		return rep, err
	}
	return rep, deleteErr
}

// liveOnPeer reports whether any peer currently hosts the session.
func liveOnPeer(peer Peer, peers []string, id string) bool {
	for _, p := range peers {
		if _, status, _, err := peer.Do(context.Background(), http.MethodGet, p+"/v1/sessions/"+id, nil, ""); err == nil && status == http.StatusOK {
			return true
		}
	}
	return false
}
