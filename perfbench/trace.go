package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Parent 0 marks
// a top-level span; spans of one request or candidate share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so timed code pays one nil
// check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// begin opens a span and returns its ID (0 when untraced).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds were observed elsewhere (a progress
// callback, a step observer) and returns its ID.
func (t *tracer) record(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: t.since(start), End: t.since(end)})
	return id
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// union is the total length covered by a set of intervals.
func union(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its direct children cover.
func selfTimes(spans []span) map[string]int64 {
	kids := map[int][][2]int64{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], [2]int64{lo, hi})
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.dur() - union(kids[s.ID])
	}
	return out
}

// coverage is the share of [start, end] covered by top-level spans.
func coverage(spans []span, start, end int64) float64 {
	var iv [][2]int64
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		lo, hi := max(s.Start, start), min(s.End, end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	return ratio(float64(union(iv)), float64(end-start))
}

// writeTrace stores the spans and per-name self times as JSON.
func writeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	selfMS := make(map[string]float64, len(self))
	for k, v := range self {
		selfMS[k] = float64(v) / 1e6
	}
	buf, err := json.Marshal(struct {
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{selfMS, spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
