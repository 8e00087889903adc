// Package promtext implements the small slice of the Prometheus metric
// model the serving layer needs — counters, gauges, histograms, labeled
// families, and read-on-scrape counter functions — exposed in the
// Prometheus text exposition format (version 0.0.4) over an ordinary
// http.Handler. It is dependency-free by design: the toolchain this repo
// builds under has no module network, so the exposition format is
// implemented directly rather than through client_golang. Any Prometheus
// server scrapes the output unchanged.
//
// Concurrency: every metric mutation is lock-free (atomics); scraping
// takes a registry read pass with no locks held across user code except
// CounterFunc callbacks, which must be safe for concurrent use.
package promtext

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds registered metric families in registration order.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// family is one metric name: help text, type, and its labeled series.
type family struct {
	name, help, typ string
	labels          []string // label names for Vec families, nil otherwise

	mu     sync.Mutex
	series map[string]series // keyed by rendered label pairs ("" for unlabeled)
	order  []string          // insertion order; sorted at scrape for determinism
}

// series renders one sample set (a counter/gauge value, or a histogram's
// bucket/sum/count triplet) given its family name and label rendering.
type series interface {
	write(sb *strings.Builder, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, existing := range r.families {
		if existing.name == f.name {
			panic(fmt.Sprintf("promtext: metric %q registered twice", f.name))
		}
	}
	r.families = append(r.families, f)
	return f
}

// get returns (creating on first use) the series for one label-value
// tuple of the family.
func (f *family) get(labelValues []string, mk func() series) series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("promtext: metric %q wants %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	key := renderLabels(f.labels, labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	if f.series == nil {
		f.series = make(map[string]series)
	}
	s := mk()
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// renderLabels renders a label tuple as {a="x",b="y"}, with values escaped
// per the exposition format. Empty label sets render as "".
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// labelEscaper escapes a label value for the exposition format. A Replacer
// is safe for concurrent use, and building one per label was most of what
// With cost.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// WriteTo renders every family in the text exposition format. Series
// within a family are sorted by label rendering so output is stable.
func (r *Registry) WriteTo(sb *strings.Builder) {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range families {
		fmt.Fprintf(sb, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(sb, "# TYPE %s %s\n", f.name, f.typ)
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		ser := make([]series, len(keys))
		for i, k := range keys {
			ser[i] = f.series[k]
		}
		f.mu.Unlock()
		idx := make([]int, len(keys))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		for _, i := range idx {
			ser[i].write(sb, f.name, keys[i])
		}
	}
}

// Handler returns an http.Handler serving the scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var sb strings.Builder
		r.WriteTo(&sb)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(sb.String()))
	})
}

// ---- Counter ----

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta, which must be non-negative.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(sb *strings.Builder, name, labels string) {
	fmt.Fprintf(sb, "%s%s %d\n", name, labels, c.v.Load())
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func NewCounterVec(r *Registry, name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(&family{name: name, help: help, typ: "counter", labels: labels})}
}

// With returns the counter for one label-value tuple, creating it on
// first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues, func() series { return &Counter{} }).(*Counter)
}

// ---- CounterFunc ----

// counterFunc reads its value at scrape time — for counters whose source
// of truth lives elsewhere (cache hit totals, say).
type counterFunc struct{ fn func() int64 }

func (c counterFunc) write(sb *strings.Builder, name, labels string) {
	fmt.Fprintf(sb, "%s%s %d\n", name, labels, c.fn())
}

// NewCounterFuncVec registers a labeled counter family whose series are
// callbacks sampled at scrape time; attach series with With.
type CounterFuncVec struct{ f *family }

// NewCounterFuncVec registers the family.
func NewCounterFuncVec(r *Registry, name, help string, labels ...string) *CounterFuncVec {
	return &CounterFuncVec{f: r.register(&family{name: name, help: help, typ: "counter", labels: labels})}
}

// With binds fn as the series for one label-value tuple. fn must be safe
// for concurrent use and monotonically non-decreasing.
func (v *CounterFuncVec) With(fn func() int64, labelValues ...string) {
	v.f.get(labelValues, func() series { return counterFunc{fn} })
}

// ---- Gauge ----

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(sb *strings.Builder, name, labels string) {
	fmt.Fprintf(sb, "%s%s %d\n", name, labels, g.v.Load())
}

// NewGauge registers an unlabeled gauge.
func NewGauge(r *Registry, name, help string) *Gauge {
	g := &Gauge{}
	f := r.register(&family{name: name, help: help, typ: "gauge"})
	f.get(nil, func() series { return g })
	return g
}

// ---- Histogram ----

// Histogram accumulates observations into cumulative buckets, with the
// conventional _bucket/_sum/_count exposition.
type Histogram struct {
	bounds []float64       // upper bounds, ascending; +Inf is implicit
	counts []atomic.Uint64 // one per bound, plus the +Inf bucket at the end
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// DefBuckets mirrors client_golang's default latency buckets (seconds).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) write(sb *strings.Builder, name, labels string) {
	// A histogram's le label composes with the family's own labels.
	lopen := "{"
	if labels != "" {
		lopen = labels[:len(labels)-1] + ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(sb, "%s_bucket%sle=%q} %d\n", name, lopen, formatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(sb, "%s_bucket%sle=\"+Inf\"} %d\n", name, lopen, cum)
	fmt.Fprintf(sb, "%s_sum%s %s\n", name, labels, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
	fmt.Fprintf(sb, "%s_count%s %d\n", name, labels, h.count.Load())
}

func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// NewHistogramVec registers a labeled histogram family (nil buckets means
// DefBuckets).
func NewHistogramVec(r *Registry, name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{
		f:       r.register(&family{name: name, help: help, typ: "histogram", labels: labels}),
		buckets: buckets,
	}
}

// With returns the histogram for one label-value tuple, creating it on
// first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.get(labelValues, func() series { return newHistogram(v.buckets) }).(*Histogram)
}
