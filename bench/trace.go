package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call from the harness into a layer's exported function (or
// one op, whose span parents the calls made on its behalf). Spans are
// recorded only at the harness/layer boundary; spans inside the program
// under test are a later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Op     int    `json:"op"`     // op sequence number shared by an op's spans; 0 outside any op
	Name   string `json:"name"`   // "<layer>.<function>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"` // > 1 when one span covers a batch of identical calls
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the end-to-end run stays untraced.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// scope is where new spans attach: the tracer plus the current parent span
// and op. The zero scope (nil tracer) is inert.
type scope struct {
	tr     *tracer
	parent int
	op     int
}

// beginOp opens the span of one op and returns the scope its layer calls
// attach to.
func (tr *tracer) beginOp(name string) (scope, func()) {
	if tr == nil {
		return scope{}, func() {}
	}
	tr.mu.Lock()
	tr.ops++
	op := tr.ops
	tr.mu.Unlock()
	return scope{tr: tr, op: op}.begin(name)
}

// begin opens a child span and returns the scope inside it and the function
// that closes it.
func (s scope) begin(name string) (scope, func()) {
	return s.beginN(name, 1)
}

// beginN is begin for a span covering calls identical calls.
func (s scope) beginN(name string, calls int) (scope, func()) {
	tr := s.tr
	if tr == nil {
		return s, func() {}
	}
	tr.mu.Lock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: s.parent, Op: s.op, Name: name, Calls: calls})
	tr.mu.Unlock()
	start := time.Since(tr.epoch)
	return scope{tr: tr, parent: id, op: s.op}, func() {
		end := time.Since(tr.epoch)
		tr.mu.Lock()
		tr.spans[id-1].Start, tr.spans[id-1].End = int64(start), int64(end)
		tr.mu.Unlock()
	}
}

// layerRow is one line of the per-layer table derived from spans.
type layerRow struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"` // total minus the part covered by child spans
}

// layerTable aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover (children of one
// parent may overlap when clients run concurrently, so covered time is the
// union of their intervals clipped to the parent).
func layerTable(spans []span) []layerRow {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		dur := s.End - s.Start
		r.Spans++
		r.Calls += max(s.Calls, 1)
		r.TotalMS += float64(dur) / 1e6
		r.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of kids' intervals inside parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cursor := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cursor), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cursor = hi
		}
	}
	return total
}

// layerOf is the layer a span name belongs to: the text before the dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfByLayer sums self time per layer.
func selfByLayer(rows []layerRow) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		out[layerOf(r.Name)] += r.SelfMS
	}
	return out
}

// writeSpans writes the span file: the environment stamp, the derived
// table, and every span.
func writeSpans(path string, env envStamp, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Env    envStamp   `json:"env"`
		Layers []layerRow `json:"layers"`
		Spans  []span     `json:"spans"`
	}{env, layerTable(spans), spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
