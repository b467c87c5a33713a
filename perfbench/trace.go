package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Parent indexes the span
// that caused it (-1 for none); spans of one request share ReqID.
type span struct {
	Name   string        `json:"name"`
	ReqID  string        `json:"req"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	// Items is how many telemetry records the span carried (serving spans).
	Items int `json:"items,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; a nil *tracer records nothing, so untraced
// runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// since is the offset of now from the tracer's origin.
func (t *tracer) since() time.Duration { return time.Since(t.t0) }

// add records a finished span and returns its index.
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	s.Parent = -1
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// time runs fn inside a span named name.
func (t *tracer) time(name string, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	start := t.since()
	fn()
	end := t.since()
	t.add(span{Name: name, Start: start, End: end})
	return end - start
}

// byName returns the spans with the given name, in recording order.
func (t *tracer) byName(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// tracePoint is a layer boundary installed once at set-up; it records
// spans only while a tracer is attached, so the untraced part of a run pays
// one atomic load per request.
type tracePoint struct {
	name string
	cur  *atomic.Pointer[tracer]
	// reqID derives the request id and record count from the request (it
	// may read and restore the body); ok=false leaves the request untimed.
	reqID func(*http.Request) (id string, items int, ok bool)
}

func (tp tracePoint) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tp.cur.Load()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		start := t.since()
		id, items, ok := tp.reqID(r)
		h.ServeHTTP(w, r)
		if ok {
			t.add(span{Name: tp.name, ReqID: id, Start: start, End: t.since(), Items: items})
		}
	})
}

// selfTime is parent's duration minus the part of its interval covered by
// the children (overlapping children count once).
func selfTime(parent span, children []span) time.Duration {
	iv := make([]span, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			iv = append(iv, span{Start: s, End: e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var covered time.Duration
	var curS, curE time.Duration
	for i, c := range iv {
		switch {
		case i == 0:
			curS, curE = c.Start, c.End
		case c.Start <= curE:
			curE = max(curE, c.End)
		default:
			covered += curE - curS
			curS, curE = c.Start, c.End
		}
	}
	if len(iv) > 0 {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// pairContained links each span named childName to the span named
// parentName that has the same request id and contains it in time. Ids are
// chosen so that one request per id is in flight (a session's step), which
// makes the containing parent unique. It
// returns the number of children paired.
func (t *tracer) pairContained(parentName, childName string) int {
	parents := map[string][]int{}
	for i, s := range t.spans {
		if s.Name == parentName {
			parents[s.ReqID] = append(parents[s.ReqID], i)
		}
	}
	for _, idx := range parents {
		sort.Slice(idx, func(a, b int) bool { return t.spans[idx[a]].Start < t.spans[idx[b]].Start })
	}
	paired := 0
	for i := range t.spans {
		c := &t.spans[i]
		if c.Name != childName {
			continue
		}
		idx := parents[c.ReqID]
		// The last parent that started no later than the child.
		k := sort.Search(len(idx), func(k int) bool { return t.spans[idx[k]].Start > c.Start }) - 1
		if k >= 0 && c.End <= t.spans[idx[k]].End {
			c.Parent = idx[k]
			paired++
		}
	}
	return paired
}

// children groups spans of the given name by parent index.
func (t *tracer) children(name string) map[int][]span {
	out := map[int][]span{}
	for _, s := range t.spans {
		if s.Name == name && s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// selfTimesMS returns, for every span named name, its self time against its
// children named childName, in ms. Spans with no paired child are skipped.
func (t *tracer) selfTimesMS(name, childName string) []float64 {
	kids := t.children(childName)
	var out []float64
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		if c, ok := kids[i]; ok {
			out = append(out, ms(selfTime(s, c)))
		}
	}
	return out
}

// durationsMS returns the durations of every span named name, in ms.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
