package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"time"
)

// defaultClient is the shared client behind every Peer that names none.
var defaultClient = &http.Client{Timeout: 10 * time.Second}

// Peer is how cluster members call each other: one HTTP client and one
// deadline per call. Every backend call in the package — the router's
// forwarded calls and readiness probes, the drainer's handoffs, the
// replicator's pushes and fetches, and recovery's liveness checks — goes
// through Do, so a process that hands all of them the same Peer (say, one
// with a fault-injecting transport) reaches its peers one way only.
type Peer struct {
	// Client performs the calls (nil = a shared client with a 10s timeout).
	Client *http.Client
	// Timeout bounds each call (0 = the caller's default: 5s for forwarded,
	// handoff and replica calls, 2s for readiness and liveness checks).
	Timeout time.Duration
}

// orDefault returns p with a non-positive Timeout replaced by timeout.
func (p Peer) orDefault(timeout time.Duration) Peer {
	if p.Timeout <= 0 {
		p.Timeout = timeout
	}
	return p
}

// Do performs one call under the Timeout deadline (if set), nested inside
// ctx, and returns the whole response body, its status and headers. A
// non-nil body is sent with contentType (when non-empty). Do never retries.
func (p Peer) Do(ctx context.Context, method, url string, body []byte, contentType string) ([]byte, int, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	c := p.Client
	if c == nil {
		c = defaultClient
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, nil, err
	}
	return data, resp.StatusCode, resp.Header, nil
}

// without returns peers minus self and empty entries, in order.
func without(peers []string, self string) []string {
	out := make([]string, 0, len(peers))
	for _, p := range peers {
		if p != "" && p != self {
			out = append(out, p)
		}
	}
	return out
}
