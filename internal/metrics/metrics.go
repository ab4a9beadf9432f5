// Package metrics is a dependency-free implementation of the Prometheus
// text exposition format (version 0.0.4), sized for this repository's
// observability needs: counters, gauges, and fixed-bucket histograms,
// rendered by a Registry that groups label variants of one name under a
// single # HELP/# TYPE header.
//
// Two collection styles coexist:
//
//   - Owned instruments (Counter, Histogram) are updated on the hot path
//     with atomics and read at scrape time.
//   - Func gauges/counters sample an external source (e.g. the channel
//     store's own atomic counters) at scrape time, so subsystems that
//     already keep stats are exposed without double accounting.
//
// The package deliberately implements only what the server scrapes: no
// summaries, no exemplars, no timestamps, no metric expiry.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add increases the counter by d (d must be >= 0 for Prometheus semantics;
// negative deltas are ignored).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.n.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// FloatCounter is a monotonically increasing float (e.g. total epsilon
// charged). Adds use a CAS loop on the bit pattern.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add increases the counter by d; negative or NaN deltas are ignored.
func (c *FloatCounter) Add(d float64) {
	if !(d > 0) {
		return
	}
	for {
		old := c.bits.Load()
		cur := math.Float64frombits(old)
		if c.bits.CompareAndSwap(old, math.Float64bits(cur+d)) {
			return
		}
	}
}

// Value returns the current total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Observations and scrapes
// are lock-free; bucket counts are per-bound (not cumulative) internally and
// accumulated at render time, matching the Prometheus bucket contract
// (le-labeled series are cumulative, ending at le="+Inf").
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds, excluding +Inf
	counts []atomic.Int64
	inf    atomic.Int64
	sum    FloatCounter
}

// NewHistogram builds a histogram over the given strictly increasing upper
// bounds. The implicit +Inf bucket is always present.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("metrics: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(h.bounds) {
		h.inf.Add(1)
	} else {
		h.counts[lo].Add(1)
	}
	if v > 0 {
		h.sum.Add(v)
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	n := h.inf.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]) assuming a
// uniform distribution within each bucket; the lower edge of the first
// nonempty bucket is taken as 0. It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	lower := 0.0
	for i := range h.counts {
		n := h.counts[i].Load()
		if float64(cum+n) >= rank && n > 0 {
			frac := (rank - float64(cum)) / float64(n)
			return lower + frac*(h.bounds[i]-lower)
		}
		cum += n
		lower = h.bounds[i]
	}
	return lower // rank falls in the +Inf bucket: report the largest bound
}

// kind is the Prometheus metric type of one family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one label variant of a family: either an owned instrument or a
// scrape-time sampling function.
type series struct {
	labels string // pre-rendered {k="v",...} or ""
	ctr    *Counter
	fctr   *FloatCounter
	hist   *Histogram
	fn     func() float64
}

type family struct {
	name   string
	help   string
	kind   kind
	series []*series
}

// Registry holds metric families and renders them in the text exposition
// format. Registration is expected at setup time; rendering may run
// concurrently with hot-path updates to the registered instruments.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Labels is an ordered label set rendered as {k1="v1",k2="v2"}; keys are
// sorted at render time so series identity is order-independent.
type Labels map[string]string

func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(ls[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper applies the exposition-format label escaping rules.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes one label value.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

func (r *Registry) familyFor(name, help string, k kind) *family {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: k}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as both %v and %v", name, f.kind, k))
	}
	return f
}

func (r *Registry) addSeries(name, help string, k kind, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, k)
	for _, ex := range f.series {
		if ex.labels == s.labels {
			panic(fmt.Sprintf("metrics: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// Counter registers (or returns the existing) counter series for the given
// name and labels.
func (r *Registry) Counter(name, help string, ls Labels) *Counter {
	lbl := renderLabels(ls)
	r.mu.Lock()
	f := r.familyFor(name, help, kindCounter)
	for _, ex := range f.series {
		if ex.labels == lbl && ex.ctr != nil {
			r.mu.Unlock()
			return ex.ctr
		}
	}
	c := &Counter{}
	f.series = append(f.series, &series{labels: lbl, ctr: c})
	r.mu.Unlock()
	return c
}

// FloatCounter registers (or returns the existing) float counter series.
func (r *Registry) FloatCounter(name, help string, ls Labels) *FloatCounter {
	lbl := renderLabels(ls)
	r.mu.Lock()
	f := r.familyFor(name, help, kindCounter)
	for _, ex := range f.series {
		if ex.labels == lbl && ex.fctr != nil {
			r.mu.Unlock()
			return ex.fctr
		}
	}
	c := &FloatCounter{}
	f.series = append(f.series, &series{labels: lbl, fctr: c})
	r.mu.Unlock()
	return c
}

// Histogram registers a histogram series with the given bucket upper bounds.
func (r *Registry) Histogram(name, help string, ls Labels, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.addSeries(name, help, kindHistogram, &series{labels: renderLabels(ls), hist: h})
	return h
}

// RegisterHistogram adds an externally owned histogram as a series, for
// subsystems that observe into a histogram constructed before (or without)
// any registry — e.g. the fabric's remote-fetch latency histogram, which
// exists whether or not the metrics endpoint is enabled.
func (r *Registry) RegisterHistogram(name, help string, ls Labels, h *Histogram) {
	r.addSeries(name, help, kindHistogram, &series{labels: renderLabels(ls), hist: h})
}

// GaugeFunc registers a gauge sampled by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, ls Labels, fn func() float64) {
	r.addSeries(name, help, kindGauge, &series{labels: renderLabels(ls), fn: fn})
}

// CounterFunc registers a counter whose value is sampled by fn at scrape
// time — for subsystems that already keep their own monotonic counters.
func (r *Registry) CounterFunc(name, help string, ls Labels, fn func() float64) {
	r.addSeries(name, help, kindCounter, &series{labels: renderLabels(ls), fn: fn})
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	// %g keeps integers compact (1234 not 1234.000000) and floats precise.
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered family in the text exposition
// format: one # HELP and # TYPE header per family, then each series. The
// output is deterministic for a fixed registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.hist != nil:
		return writeHistogram(w, f.name, s)
	case s.ctr != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.ctr.Value())
		return err
	case s.fctr != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.fctr.Value()))
		return err
	default:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.fn()))
		return err
	}
}

// writeHistogram renders the cumulative bucket series, sum and count. The
// series labels are merged with the le label (labels are pre-rendered, so the
// le pair is spliced in before the closing brace).
func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.hist
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, spliceLabel(s.labels, "le", formatValue(b)), cum); err != nil {
			return err
		}
	}
	cum += h.inf.Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, spliceLabel(s.labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatValue(h.sum.Value())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, cum)
	return err
}

// spliceLabel appends one extra label pair to a pre-rendered label block.
func spliceLabel(labels, key, val string) string {
	pair := key + `="` + escapeLabel(val) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}
