package main

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geoind"
	"geoind/internal/geo"
)

// spanName identifies the seam a span was recorded at.
type spanName uint8

const (
	spanClient    spanName = iota // client side of one HTTP request, send to body read
	spanHandler                   // *server.Server.ServeHTTP
	spanMechOne                   // mechanism ReportCtx
	spanMechBatch                 // mechanism ReportBatchCtx
	spanBulk                      // one sanitize-bulk batch call
)

var spanNames = [...]string{"client", "handler", "mech.report", "mech.batch", "bulk.batch"}

// span is one timed interval. Spans of one request share req; parent is the
// id of the span that caused this one (0 for a root).
type span struct {
	req        uint64
	id, parent uint32
	name       spanName
	class      class // request class, for client and handler spans
	n          int32 // locations released under the span
	start, end int64 // ns since the tracer started
}

func (s span) dur() int64 { return s.end - s.start }

// spanRef is what travels with a request: its id and the current span.
type spanRef struct {
	req uint64
	id  uint32
}

type spanKey struct{}

func spanFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}

// spanHeader carries the client span's ref to the in-process server.
const spanHeader = "X-Bench-Span"

func (r spanRef) header() string {
	return strconv.FormatUint(r.req, 10) + "-" + strconv.FormatUint(uint64(r.id), 10)
}

func parseSpanRef(s string) (spanRef, bool) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return spanRef{}, false
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 32)
	return spanRef{req, uint32(id)}, err1 == nil && err2 == nil
}

// tracer keeps every span in memory; dump writes them out once the run ends.
type tracer struct {
	t0   time.Time
	ids  atomic.Uint32
	reqs atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) root() spanRef { return spanRef{t.reqs.Add(1), t.ids.Add(1)} }

func (t *tracer) child(parent spanRef) spanRef { return spanRef{parent.req, t.ids.Add(1)} }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// dump writes the spans as CSV.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req,id,parent,name,class,n,start_ns,end_ns")
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%d,%d,%d,%s,%s,%d,%d,%d\n", s.req, s.id, s.parent, spanNames[s.name], classNames[s.class], s.n, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedHandler wraps the server: a request carrying spanHeader gets a
// handler span, and its ref rides in the request context down to the
// mechanism. Requests without the header pass straight through.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, ok := parseSpanRef(r.Header.Get(spanHeader))
	if !ok {
		h.next.ServeHTTP(w, r)
		return
	}
	ref := h.tr.child(parent)
	start := h.tr.now()
	h.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, ref)))
	c := classReport
	for i, p := range classPaths {
		if p == r.URL.Path {
			c = class(i)
		}
	}
	h.tr.record(span{req: ref.req, id: ref.id, parent: parent.id, name: spanHandler, class: c, start: start, end: h.tr.now()})
}

// tracedMech wraps the mechanism the server fronts. It forwards ReportCtx and
// ReportBatchCtx so the server keeps its cancelable paths, and records a
// span when the context carries one.
type tracedMech struct {
	m  *geoind.MSM
	tr *tracer
}

func (t tracedMech) Report(x geo.Point) (geo.Point, error) {
	return t.ReportCtx(context.Background(), x)
}

func (t tracedMech) ReportCtx(ctx context.Context, x geo.Point) (geo.Point, error) {
	parent, ok := spanFrom(ctx)
	if !ok {
		return t.m.ReportCtx(ctx, x)
	}
	ref := t.tr.child(parent)
	start := t.tr.now()
	z, err := t.m.ReportCtx(ctx, x)
	t.tr.record(span{req: ref.req, id: ref.id, parent: parent.id, name: spanMechOne, n: 1, start: start, end: t.tr.now()})
	return z, err
}

func (t tracedMech) ReportBatchCtx(ctx context.Context, xs []geo.Point) ([]geo.Point, error) {
	parent, ok := spanFrom(ctx)
	if !ok {
		return t.m.ReportBatchCtx(ctx, xs)
	}
	ref := t.tr.child(parent)
	start := t.tr.now()
	zs, err := t.m.ReportBatchCtx(ctx, xs)
	t.tr.record(span{req: ref.req, id: ref.id, parent: parent.id, name: spanMechBatch, n: int32(len(xs)), start: start, end: t.tr.now()})
	return zs, err
}

func (t tracedMech) Epsilon() float64 { return t.m.Epsilon() }
func (t tracedMech) Name() string     { return t.m.Name() }

// spanTree indexes spans by id and parent for self-time queries.
type spanTree struct {
	spans    []span
	children map[uint32][]int
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: make(map[uint32][]int)}
	for i, s := range spans {
		if s.parent != 0 {
			t.children[s.parent] = append(t.children[s.parent], i)
		}
	}
	return t
}

// self is span i's duration minus the part of its interval its children
// cover.
func (t *spanTree) self(i int) int64 {
	s := t.spans[i]
	var iv [][2]int64
	for _, c := range t.children[s.id] {
		a, b := max(t.spans[c].start, s.start), min(t.spans[c].end, s.end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	covered, reach := int64(0), s.start
	for _, v := range iv {
		a := max(v[0], reach)
		if v[1] > a {
			covered += v[1] - a
			reach = v[1]
		}
	}
	return s.dur() - covered
}

// child returns the first child of span i with the given name.
func (t *spanTree) child(i int, name spanName) (span, bool) {
	for _, c := range t.children[t.spans[i].id] {
		if t.spans[c].name == name {
			return t.spans[c], true
		}
	}
	return span{}, false
}
