package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval of a traced request. Spans of request r
// have ids 4r (the client's root span, named by request kind), 4r+1
// (the HTTP round trip) and 4r+2 (the server's handler).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mark and since bracket the spans of one phase.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// wrap records a handler span for every request that carries a request
// id; other requests pass through untouched.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid, err := strconv.ParseUint(r.Header.Get(ridHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(span{Name: "handler", ID: rid*4 + 2, Parent: rid*4 + 1, Req: rid, Start: start, End: t.now()})
	})
}

// write stores every span as one JSON line in dir/spans/<name>.jsonl.
func (t *tracer) write(dir, name string) (string, error) {
	dir = filepath.Join(dir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}

// spanStats aggregates the spans of one name, in nanoseconds.
type spanStats struct {
	n    int
	dur  float64 // summed durations
	self float64 // summed self times
	root bool    // the spans have no parent
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of it that its children cover.
func selfTimes(spans []span) map[string]*spanStats {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{root: s.Parent == 0}
			out[s.Name] = st
		}
		d := float64(s.End - s.Start)
		st.n++
		st.dur += d
		st.self += d - float64(covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}
