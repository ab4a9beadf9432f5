package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"geoind/internal/geo"
)

// decodeJSON decodes body as the handlers did before the request codec: one
// value, encoding/json, unknown fields rejected.
func decodeJSON[T any](body []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	return v, err
}

func sameRequest(a, b ReportRequest) bool {
	return a.UserID == b.UserID &&
		math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// FuzzReportDecode checks the request parser against encoding/json: every
// body it accepts as a report, batch or trace request, encoding/json with
// DisallowUnknownFields accepts as the same value.
func FuzzReportDecode(f *testing.F) {
	for _, s := range []string{
		`{"user_id":"u","x":5,"y":5}`,
		` {"y":-0.125e-3 ,"x":1E+2,"user_id":"alice"}` + "\n",
		`{}`,
		`{"user_id":"u","x":1,"x":2,"y":5}`,
		`{"user_id":"u","X":1,"y":5}`,
		`{"user_id":"u","x":1,"y":5}`,
		`{"user_id":"u","x":1e400,"y":5}`,
		`{"user_id":"u","x":01,"y":5}`,
		`{"user_id":"u","x":1.,"y":5}`,
		`{"user_id":"u","x":-,"y":5}`,
		`null`,
		`[]`,
		`[{"user_id":"u","x":1,"y":2},{"user_id":"u","x":3.5,"y":4}]`,
		`[{"user_id":"u","x":1,"y":2},{"user_id":"v","x":3,"y":4}] `,
		`[{"x":1,"y":2},]`,
		`{"user_id":"u","x":1,"y":2,"mode":"independent"}`,
		`{"mode":"predictive","user_id":"u","x":1,"y":2}`,
		`{"user_id":"u","x":1,"y":2} x`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ReportRequest
		if parseReport(body, &req) {
			want, err := decodeJSON[ReportRequest](body)
			if err != nil || !sameRequest(req, want) {
				t.Fatalf("report %q: parsed %+v; encoding/json %+v, %v", body, req, want, err)
			}
		}
		var tr TraceRequest
		if parseTrace(body, &tr) {
			want, err := decodeJSON[TraceRequest](body)
			if err != nil || tr.Mode != want.Mode ||
				!sameRequest(ReportRequest{tr.UserID, tr.X, tr.Y}, ReportRequest{want.UserID, want.X, want.Y}) {
				t.Fatalf("trace %q: parsed %+v; encoding/json %+v, %v", body, tr, want, err)
			}
		}
		if c := (codecBuf{b: body}); c.parseBatch() {
			reqs := c.reqs
			want, err := decodeJSON[[]ReportRequest](body)
			if err != nil || len(reqs) != len(want) {
				t.Fatalf("batch %q: parsed %+v; encoding/json %+v, %v", body, reqs, want, err)
			}
			for i := range reqs {
				if !sameRequest(reqs[i], want[i]) {
					t.Fatalf("batch %q entry %d: parsed %+v; encoding/json %+v", body, i, reqs[i], want[i])
				}
			}
		}
	})
}

// TestAppendFloatMatchesJSON checks appendFloat against json.Marshal over
// random bit patterns (every exponent, NaN and Inf excluded) and random
// values scaled across the format thresholds.
func TestAppendFloatMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	scales := []float64{1, 1e-6, 1e-7, 1e21, 1e20, 1e-300, 1e300, 5e-324}
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	var buf []byte
	for i := range n {
		var f float64
		if i%2 == 0 {
			f = math.Float64frombits(rng.Uint64())
		} else {
			f = (rng.Float64()*10 - 5) * scales[rng.IntN(len(scales))]
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if buf = appendFloat(buf[:0], f); !bytes.Equal(buf, want) {
			t.Fatalf("%x: appendFloat %s, json %s", math.Float64bits(f), buf, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-6, 1e21, math.Nextafter(1e21, 0),
		math.Nextafter(1e-6, 0), math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-9, -1e-10} {
		want, _ := json.Marshal(f)
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("%v: appendFloat %s, json %s", f, got, want)
		}
	}
}

// TestResponsesMatchEncoder checks the appended 200 bodies against
// json.Encoder over the response types, for random bit patterns (NaN and
// Inf included) with and without a remaining budget.
func TestResponsesMatchEncoder(t *testing.T) {
	s, err := New(namedMech{name: "m\u00e9<&>\u2028"}, nil, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	random := func() float64 { return math.Float64frombits(rng.Uint64()) }
	encode := func(v any) string {
		var b bytes.Buffer
		_ = json.NewEncoder(&b).Encode(v)
		return b.String()
	}
	check := func(what string, write func(http.ResponseWriter, *codecBuf), want string) {
		t.Helper()
		rec := httptest.NewRecorder()
		write(rec, &codecBuf{})
		if got := rec.Body.String(); rec.Code != http.StatusOK || got != want {
			t.Fatalf("%s: status %d, body\n got %q\nwant %q", what, rec.Code, got, want)
		}
	}
	for i := range 2000 {
		z, rem := geo.Point{X: random(), Y: random()}, random()
		var remp *float64
		if i%2 == 0 {
			remp = &rem
		}
		check("report", func(w http.ResponseWriter, c *codecBuf) { s.writeReport(w, c, z, remp) },
			encode(ReportResponse{X: z.X, Y: z.Y, EpsSpent: s.eps, Remaining: remp, Mechanism: s.name}))

		zs := make([]geo.Point, i%4)
		results := make([]BatchPoint, len(zs))
		for j := range zs {
			zs[j] = geo.Point{X: random(), Y: random()}
			results[j] = BatchPoint{X: zs[j].X, Y: zs[j].Y}
		}
		check("batch", func(w http.ResponseWriter, c *codecBuf) { s.writeBatch(w, c, zs, remp) },
			encode(BatchReportResponse{Results: results, EpsSpent: float64(len(zs)) * s.eps, Remaining: remp, Mechanism: s.name}))

		spent, fresh, mode := random(), i%3 == 0, modePredictive
		if i%5 == 0 {
			mode = modeIndependent
		}
		check("trace", func(w http.ResponseWriter, c *codecBuf) { s.writeTrace(w, c, z, spent, fresh, mode, rem) },
			encode(TraceResponse{X: z.X, Y: z.Y, EpsSpent: spent, Fresh: fresh, Mode: mode, Remaining: rem, Mechanism: s.name}))
	}
}

// TestDecodeShortReads covers bodies that arrive in pieces or whose read
// fails: the read error is replayed after the bytes read, where the decoder
// met it in the request body.
func TestDecodeShortReads(t *testing.T) {
	s, err := New(allocMech{}, nil, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	const body = `{"x":1.5,"y":2.25}`
	const ok = "{\"x\":2,\"y\":2,\"eps_spent\":0.5,\"mechanism\":\"alloc\"}\n"
	boom := errors.New("boom")
	for _, c := range []struct {
		name   string
		body   io.Reader
		status int
		want   string
	}{
		{"one byte per read", iotest.OneByteReader(strings.NewReader(body)), 200, ok},
		{"error after the value", io.MultiReader(strings.NewReader(body), iotest.ErrReader(boom)), 200, ok},
		{"error inside the value", io.MultiReader(strings.NewReader(body[:9]), iotest.ErrReader(boom)), 400,
			"{\"error\":\"invalid JSON: boom\"}\n"},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/report", c.body))
		if rec.Code != c.status || rec.Body.String() != c.want {
			t.Errorf("%s: status %d, body %q; want %d, %q", c.name, rec.Code, rec.Body, c.status, c.want)
		}
	}
}

// namedMech is allocMech under another name and epsilon.
type namedMech struct {
	allocMech
	name string
}

func (m namedMech) Epsilon() float64 { return 0.7 }
func (m namedMech) Name() string     { return m.name }

// discardWriter is a ResponseWriter that allocates nothing per response.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestHandlerAllocs bounds the heap allocations of one warm report and one
// 16-point batch through ServeHTTP, with a memory ledger. With a
// json.Decoder and json.Encoder per request the report took 13 and the batch
// 39; each bound is today's count plus one.
func TestHandlerAllocs(t *testing.T) {
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("allocation counts differ under instrumentation")
	}
	ledger, err := NewLedger(1e9, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(allocMech{}, ledger, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	var batch strings.Builder
	batch.WriteString("[")
	for i := range 16 {
		if i > 0 {
			batch.WriteString(",")
		}
		fmt.Fprintf(&batch, `{"user_id":"user-42","x":%g,"y":%g}`, 1.5+float64(i), 18.25-float64(i))
	}
	batch.WriteString("]")
	for _, c := range []struct {
		path, body string
		max        float64
	}{
		{"/v1/report", `{"user_id":"user-42","x":3.141592653589793,"y":12.75}`, 3},
		{"/v1/report:batch", batch.String(), 5},
	} {
		raw := []byte(c.body)
		body := &rewindBody{}
		req := httptest.NewRequest(http.MethodPost, c.path, nil)
		w := &discardWriter{h: http.Header{}}
		run := func() {
			body.Reset(raw)
			req.Body = body
			s.ServeHTTP(w, req)
		}
		run() // warm: the user's ledger entry, the pools
		if w.code != http.StatusOK {
			t.Fatalf("%s: status %d", c.path, w.code)
		}
		got := testing.AllocsPerRun(200, run)
		if got > c.max {
			t.Errorf("%s: %.1f allocs per request, want <= %.0f", c.path, got, c.max)
		}
		t.Logf("%s: %.0f allocs per request", c.path, got)
	}
}

// allocMech is a mechanism whose reports allocate only the batch result.
type allocMech struct{}

func (allocMech) ReportCtx(_ context.Context, x geo.Point) (geo.Point, error) {
	return geo.Point{X: x.X + 0.5, Y: x.Y - 0.25}, nil
}

func (m allocMech) ReportBatchCtx(ctx context.Context, xs []geo.Point) ([]geo.Point, error) {
	out := make([]geo.Point, len(xs))
	for i, x := range xs {
		out[i], _ = m.ReportCtx(ctx, x)
	}
	return out, nil
}

func (allocMech) Epsilon() float64 { return 0.5 }
func (allocMech) Name() string     { return "alloc" }
