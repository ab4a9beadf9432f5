package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"geoind/internal/geo"
	"geoind/internal/laplace"
)

// plReporter adapts the laplace mechanism to the Reporter interface.
type plReporter struct {
	m  *laplace.Mechanism
	mu sync.Mutex
}

func (p *plReporter) ReportCtx(_ context.Context, x geo.Point) (geo.Point, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.Sample(x), nil
}

func (p *plReporter) ReportBatchCtx(ctx context.Context, xs []geo.Point) ([]geo.Point, error) {
	out := make([]geo.Point, len(xs))
	for i, x := range xs {
		out[i], _ = p.ReportCtx(ctx, x)
	}
	return out, nil
}
func (p *plReporter) Epsilon() float64 { return p.m.Epsilon() }
func (p *plReporter) Name() string     { return "PL" }

func newTestReporter(t *testing.T, eps float64) Reporter {
	t.Helper()
	m, err := laplace.New(eps, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	return &plReporter{m: m}
}

// fakeClock is an adjustable clock for window tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestLedgerValidation(t *testing.T) {
	if _, err := NewLedger(0, time.Hour, nil); err == nil {
		t.Error("zero limit should error")
	}
	if _, err := NewLedger(1, 0, nil); err == nil {
		t.Error("zero window should error")
	}
}

func TestLedgerSpendAndExhaust(t *testing.T) {
	l, err := NewLedger(1.0, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Spend("alice", 0.25); err != nil {
			t.Fatalf("spend %d: %v", i, err)
		}
	}
	if err := l.Spend("alice", 0.25); err != ErrBudgetExhausted {
		t.Errorf("5th spend: got %v want ErrBudgetExhausted", err)
	}
	if r := l.Remaining("alice"); r > 1e-9 {
		t.Errorf("remaining %g want 0", r)
	}
	// Other users are unaffected.
	if err := l.Spend("bob", 1.0); err != nil {
		t.Errorf("bob: %v", err)
	}
	if l.Users() != 2 {
		t.Errorf("users %d want 2", l.Users())
	}
	if err := l.Spend("carol", -1); err == nil {
		t.Error("negative spend should error")
	}
}

func TestLedgerWindowReset(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	l, err := NewLedger(0.5, 24*time.Hour, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Spend("u", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := l.Spend("u", 0.5); err != ErrBudgetExhausted {
		t.Fatalf("got %v", err)
	}
	clock.Advance(23 * time.Hour)
	if err := l.Spend("u", 0.5); err != ErrBudgetExhausted {
		t.Fatalf("window not elapsed yet: got %v", err)
	}
	clock.Advance(2 * time.Hour)
	if err := l.Spend("u", 0.5); err != nil {
		t.Fatalf("after window: %v", err)
	}
}

func TestLedgerConcurrentSpends(t *testing.T) {
	l, err := NewLedger(100, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 400)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				errs <- l.Spend("shared", 0.25)
			}
		}()
	}
	wg.Wait()
	close(errs)
	ok := 0
	for err := range errs {
		if err == nil {
			ok++
		}
	}
	// 400 spends of 0.25 against limit 100: exactly 400 must succeed.
	if ok != 400 {
		t.Errorf("%d spends succeeded, want 400", ok)
	}
	if r := l.Remaining("shared"); r > 1e-9 {
		t.Errorf("remaining %g want 0", r)
	}
}

func TestLedgerSaveLoad(t *testing.T) {
	clock := &fakeClock{t: time.Unix(5000, 0)}
	l, err := NewLedger(2, time.Hour, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Spend("a", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := l.Spend("b", 0.5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l2, err := NewLedger(2, time.Hour, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if r := l2.Remaining("a"); r < 0.49 || r > 0.51 {
		t.Errorf("a remaining %g want 0.5", r)
	}
	// Mismatched config rejected.
	l3, _ := NewLedger(5, time.Hour, clock.Now)
	if err := l3.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("limit mismatch should error")
	}
	if err := l2.Load(strings.NewReader("{garbage")); err == nil {
		t.Error("bad JSON should error")
	}
}

func newTestServer(t *testing.T, ledger *Ledger) *httptest.Server {
	t.Helper()
	s, err := New(newTestReporter(t, 0.5), ledger, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func postReport(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/report", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestServerValidation(t *testing.T) {
	if _, err := New(nil, nil, geo.NewSquare(20)); err == nil {
		t.Error("nil mechanism should error")
	}
	if _, err := New(newTestReporter(t, 0.5), nil, geo.Rect{}); err == nil {
		t.Error("degenerate region should error")
	}
	tiny, _ := NewLedger(0.1, time.Hour, nil)
	if _, err := New(newTestReporter(t, 0.5), tiny, geo.NewSquare(20)); err == nil {
		t.Error("ledger below per-report eps should error")
	}
}

func TestServerHealthAndInfo(t *testing.T) {
	ledger, _ := NewLedger(2, time.Hour, nil)
	ts := newTestServer(t, ledger)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Mechanism != "PL" || info.Epsilon != 0.5 || info.RegionSideKm != 20 || info.BudgetLimit != 2 {
		t.Errorf("info = %+v", info)
	}
}

func TestServerReportFlow(t *testing.T) {
	ledger, _ := NewLedger(1.0, time.Hour, nil)
	ts := newTestServer(t, ledger)

	resp, out := postReport(t, ts.URL, `{"user_id":"alice","x":5,"y":5}`)
	if resp.StatusCode != 200 {
		t.Fatalf("report: %d (%v)", resp.StatusCode, out)
	}
	if out["eps_spent"].(float64) != 0.5 {
		t.Errorf("eps_spent %v", out["eps_spent"])
	}
	if out["remaining_budget"].(float64) != 0.5 {
		t.Errorf("remaining %v want 0.5", out["remaining_budget"])
	}

	// Second report exhausts the budget; third is refused with 429.
	resp, _ = postReport(t, ts.URL, `{"user_id":"alice","x":5,"y":5}`)
	if resp.StatusCode != 200 {
		t.Fatalf("second report: %d", resp.StatusCode)
	}
	resp, out = postReport(t, ts.URL, `{"user_id":"alice","x":5,"y":5}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third report: %d want 429 (%v)", resp.StatusCode, out)
	}

	// Budget endpoint agrees.
	bresp, err := http.Get(ts.URL + "/v1/budget?user_id=alice")
	if err != nil {
		t.Fatal(err)
	}
	var budget map[string]any
	if err := json.NewDecoder(bresp.Body).Decode(&budget); err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if budget["remaining_budget"].(float64) != 0 {
		t.Errorf("budget endpoint: %v", budget)
	}
}

func TestServerBadRequests(t *testing.T) {
	ledger, _ := NewLedger(10, time.Hour, nil)
	ts := newTestServer(t, ledger)

	cases := []struct {
		body string
		want int
	}{
		{`{"user_id":"u","x":5,"y":5}`, 200},
		{`not json`, 400},
		{`{"user_id":"u","x":5,"y":5,"extra":1}`, 400}, // unknown field
		{`{"x":5,"y":5}`, 400},                         // missing user
		{`{"user_id":"u","x":500,"y":5}`, 400},         // outside region
	}
	for _, c := range cases {
		resp, out := postReport(t, ts.URL, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("body %q: status %d want %d (%v)", c.body, resp.StatusCode, c.want, out)
		}
	}

	// Wrong methods.
	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/report: %d want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/info", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/info: %d want 405", resp.StatusCode)
	}

	// Budget endpoint without user.
	resp, err = http.Get(ts.URL + "/v1/budget")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("budget without user: %d want 400", resp.StatusCode)
	}
}

func TestServerWithoutLedger(t *testing.T) {
	ts := newTestServer(t, nil)
	// No user_id needed, unlimited reports.
	for i := 0; i < 5; i++ {
		resp, out := postReport(t, ts.URL, `{"x":5,"y":5}`)
		if resp.StatusCode != 200 {
			t.Fatalf("report %d: %d (%v)", i, resp.StatusCode, out)
		}
		if _, ok := out["remaining_budget"]; ok {
			t.Error("remaining_budget should be omitted without ledger")
		}
	}
	resp, err := http.Get(ts.URL + "/v1/budget?user_id=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("budget endpoint without ledger: %d want 404", resp.StatusCode)
	}
}

// batchCountingReporter wraps plReporter and counts pooled-batch calls so
// tests can assert the handler makes one batch call, not a per-point loop.
type batchCountingReporter struct {
	plReporter
	batchCalls int
	batchPts   int
}

func (b *batchCountingReporter) ReportBatchCtx(_ context.Context, xs []geo.Point) ([]geo.Point, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.batchCalls++
	b.batchPts += len(xs)
	out := make([]geo.Point, len(xs))
	for i, x := range xs {
		out[i] = b.m.Sample(x)
	}
	return out, nil
}

func postBatch(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/report:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestServerBatchReport(t *testing.T) {
	m, err := laplace.New(0.5, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	rep := &batchCountingReporter{plReporter: plReporter{m: m}}
	ledger, _ := NewLedger(2.0, time.Hour, nil)
	s, err := New(rep, ledger, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp, out := postBatch(t, ts.URL,
		`[{"user_id":"alice","x":5,"y":5},{"user_id":"alice","x":6,"y":6},{"user_id":"alice","x":7,"y":7}]`)
	if resp.StatusCode != 200 {
		t.Fatalf("batch: %d (%v)", resp.StatusCode, out)
	}
	results := out["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results len %d want 3", len(results))
	}
	if got := out["eps_spent"].(float64); got != 1.5 {
		t.Errorf("eps_spent %g want 1.5 (3 * 0.5)", got)
	}
	if got := out["remaining_budget"].(float64); got != 0.5 {
		t.Errorf("remaining %g want 0.5", got)
	}
	if rep.batchCalls != 1 || rep.batchPts != 3 {
		t.Errorf("pooled path not used: %d calls / %d points, want 1 / 3", rep.batchCalls, rep.batchPts)
	}
	// The single-report endpoint agrees with the batch ledger state.
	if r := ledger.Remaining("alice"); r != 0.5 {
		t.Errorf("ledger remaining %g want 0.5", r)
	}
}

func TestServerBatchAllOrNothing(t *testing.T) {
	ledger, _ := NewLedger(1.0, time.Hour, nil)
	ts := newTestServer(t, ledger)

	// Batch cost 3*0.5 = 1.5 > limit 1.0: refused, ledger untouched.
	resp, out := postBatch(t, ts.URL,
		`[{"user_id":"u","x":1,"y":1},{"user_id":"u","x":2,"y":2},{"user_id":"u","x":3,"y":3}]`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget batch: %d want 429 (%v)", resp.StatusCode, out)
	}
	if r := ledger.Remaining("u"); r != 1.0 {
		t.Errorf("ledger changed on rejected batch: remaining %g want 1.0", r)
	}

	// A batch that exactly fits succeeds and drains the budget to zero.
	resp, out = postBatch(t, ts.URL, `[{"user_id":"u","x":1,"y":1},{"user_id":"u","x":2,"y":2}]`)
	if resp.StatusCode != 200 {
		t.Fatalf("exact-fit batch: %d (%v)", resp.StatusCode, out)
	}
	if r := ledger.Remaining("u"); r > 1e-9 {
		t.Errorf("remaining %g want 0", r)
	}

	// Even a single-point batch is now refused; ledger still at zero spend.
	resp, _ = postBatch(t, ts.URL, `[{"user_id":"u","x":1,"y":1}]`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("post-exhaustion batch: %d want 429", resp.StatusCode)
	}
}

func TestServerBatchBadRequests(t *testing.T) {
	ledger, _ := NewLedger(100, time.Hour, nil)
	ts := newTestServer(t, ledger)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"ok", `[{"user_id":"u","x":5,"y":5}]`, 200},
		{"empty batch", `[]`, 400},
		{"not json", `nonsense`, 400},
		{"object not array", `{"user_id":"u","x":5,"y":5}`, 400},
		{"malformed entry", `[{"user_id":"u","x":"five","y":5}]`, 400},
		{"unknown field", `[{"user_id":"u","x":5,"y":5,"zz":1}]`, 400},
		{"missing user", `[{"x":5,"y":5}]`, 400},
		{"mixed users", `[{"user_id":"u","x":5,"y":5},{"user_id":"v","x":6,"y":6}]`, 400},
		{"out of region", `[{"user_id":"u","x":5,"y":5},{"user_id":"u","x":500,"y":5}]`, 400},
	}
	for _, c := range cases {
		resp, out := postBatch(t, ts.URL, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d want %d (%v)", c.name, resp.StatusCode, c.want, out)
		}
	}
	// Nothing but the one valid batch may have been charged.
	if r := ledger.Remaining("u"); r != 99.5 {
		t.Errorf("remaining %g want 99.5: a rejected batch was charged", r)
	}
	if r := ledger.Remaining("v"); r != 100 {
		t.Errorf("user v remaining %g want 100", r)
	}

	// Oversized batch: MaxBatchSize+1 valid entries, rejected with 413.
	var sb strings.Builder
	sb.WriteString("[")
	for i := 0; i <= MaxBatchSize; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"user_id":"u","x":5,"y":5}`)
	}
	sb.WriteString("]")
	resp, _ := postBatch(t, ts.URL, sb.String())
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: %d want 413", resp.StatusCode)
	}
	if r := ledger.Remaining("u"); r != 99.5 {
		t.Errorf("oversized batch charged the ledger: remaining %g want 99.5", r)
	}

	// Wrong method.
	resp2, err := http.Get(ts.URL + "/v1/report:batch")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/report:batch: %d want 405", resp2.StatusCode)
	}
}

func TestServerBatchWithoutLedger(t *testing.T) {
	ts := newTestServer(t, nil)
	// user_id is not required (and mixed entries are fine) without budgets.
	resp, out := postBatch(t, ts.URL, `[{"x":5,"y":5},{"user_id":"anyone","x":6,"y":6}]`)
	if resp.StatusCode != 200 {
		t.Fatalf("batch: %d (%v)", resp.StatusCode, out)
	}
	if len(out["results"].([]any)) != 2 {
		t.Errorf("results: %v", out["results"])
	}
	if _, ok := out["remaining_budget"]; ok {
		t.Error("remaining_budget should be omitted without ledger")
	}
}

func TestServerReportsArePerturbed(t *testing.T) {
	ts := newTestServer(t, nil)
	distinct := map[string]bool{}
	for i := 0; i < 10; i++ {
		_, out := postReport(t, ts.URL, `{"x":10,"y":10}`)
		distinct[fmt.Sprintf("%v,%v", out["x"], out["y"])] = true
	}
	if len(distinct) < 2 {
		t.Error("10 reports produced identical outputs; mechanism not sampling")
	}
}
