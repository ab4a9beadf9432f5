package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"geoind/internal/geo"
	"geoind/internal/session"
)

// newTraceServer builds a trace-enabled server over a durable (tempdir)
// session store with the given budget limit, returning the server (for
// direct state inspection) and the HTTP fixture.
func newTraceServer(t *testing.T, eps, limit float64, cfg TraceConfig) (*Server, *httptest.Server) {
	t.Helper()
	st, err := session.Open(session.Config{Limit: limit, Window: time.Hour, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	ledger, err := NewLedgerStore(st)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(newTestReporter(t, eps), ledger, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableTrace(cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postTrace(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/trace", "application/json", strings.NewReader(body))
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

func TestEnableTraceValidation(t *testing.T) {
	s, err := New(newTestReporter(t, 0.5), nil, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableTrace(TraceConfig{Theta: 2, EpsTest: 0.1}); err == nil {
		t.Error("trace without a ledger should error")
	}

	ledger, err := NewLedger(10, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err = New(newTestReporter(t, 0.5), ledger, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []TraceConfig{
		{Theta: 0, EpsTest: 0.1},
		{Theta: 2, EpsTest: 0},
		{Theta: 2, EpsTest: -1},
		{Theta: 2, EpsTest: 100}, // eps + epsTest above the limit
	} {
		if err := s.EnableTrace(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if err := s.EnableTrace(TraceConfig{Theta: 2, EpsTest: 0.1}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceDisabled(t *testing.T) {
	ledger, err := NewLedger(10, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(newTestReporter(t, 0.5), ledger, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, _ := postTrace(t, ts.URL, `{"user_id":"u","x":1,"y":1}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled trace returned %d, want 404", resp.StatusCode)
	}
}

func TestTraceRequestValidation(t *testing.T) {
	_, ts := newTraceServer(t, 0.5, 100, TraceConfig{Theta: 2, EpsTest: 0.1})
	cases := []struct {
		body string
		want int
	}{
		{`{"x":1,"y":1}`, http.StatusBadRequest},                          // no user
		{`{"user_id":"u","x":500,"y":1}`, http.StatusBadRequest},          // outside region
		{`{"user_id":"u","x":1,"y":1,"mode":"x"}`, http.StatusBadRequest}, // bad mode
		{`{"user_id":"u","x":1,"bogus":2}`, http.StatusBadRequest},        // unknown field
		{`{`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _ := postTrace(t, ts.URL, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("body %q: status %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET returned %d, want 405", resp.StatusCode)
	}
}

// TestTraceStationaryUserSavesBudget drives a dwelling user and checks the
// core predictive property end to end: after the first fresh report, steps
// mostly re-release the memoized location for epsTest, so total spend is far
// below the independent cost, and re-released steps return the exact same
// coordinates.
func TestTraceStationaryUserSavesBudget(t *testing.T) {
	const steps = 40
	s, ts := newTraceServer(t, 2.0, 1000, TraceConfig{Theta: 4, EpsTest: 0.5, Seed: 9})

	var frozen geo.Point
	memoHits := 0
	for i := 0; i < steps; i++ {
		resp, out := postTrace(t, ts.URL, `{"user_id":"alice","x":3,"y":4}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: status %d: %v", i, resp.StatusCode, out)
		}
		if out["mode"] != "predictive" {
			t.Fatalf("step %d: mode %v", i, out["mode"])
		}
		z := geo.Point{X: out["x"].(float64), Y: out["y"].(float64)}
		if out["fresh"].(bool) {
			frozen = z
		} else {
			memoHits++
			if z != frozen {
				t.Fatalf("step %d: memo hit released %v, want frozen %v", i, z, frozen)
			}
			if spent := out["eps_spent"].(float64); spent != 0.5 {
				t.Fatalf("step %d: memo hit cost %g, want epsTest", i, spent)
			}
		}
	}
	if memoHits < steps/2 {
		t.Errorf("only %d/%d memo hits for a stationary user under theta=4", memoHits, steps)
	}

	spent := 1000 - s.ledger.Remaining("alice")
	independent := float64(steps) * 2.0
	if spent > independent/2 {
		t.Errorf("predictive spend %g not below half the independent cost %g", spent, independent)
	}

	// The session memo must match the frozen release (that is what a restart
	// would replay).
	memo, ok := s.ledger.Sessions().Memo("alice")
	if !ok || memo != frozen {
		t.Errorf("session memo %v ok=%v, want %v", memo, ok, frozen)
	}
}

// TestTraceIndependentMode checks the full-epsilon baseline path: every step
// fresh, costs mech epsilon, and never touches the predictive memo.
func TestTraceIndependentMode(t *testing.T) {
	s, ts := newTraceServer(t, 0.5, 100, TraceConfig{Theta: 2, EpsTest: 0.1})
	for i := 0; i < 3; i++ {
		resp, out := postTrace(t, ts.URL, `{"user_id":"bob","x":1,"y":1,"mode":"independent"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %v", resp.StatusCode, out)
		}
		if !out["fresh"].(bool) || out["eps_spent"].(float64) != 0.5 {
			t.Fatalf("independent step: %v", out)
		}
	}
	if _, ok := s.ledger.Sessions().Memo("bob"); ok {
		t.Error("independent mode wrote a predictive memo")
	}
	if rem := s.ledger.Remaining("bob"); math.Abs(rem-98.5) > 1e-9 {
		t.Errorf("remaining %g, want 98.5", rem)
	}
}

// TestTraceBudgetExhaustion: an exhausted window yields 429 and no
// over-spend; the counter surfaces in stats.
func TestTraceBudgetExhaustion(t *testing.T) {
	// Limit admits the first fresh report (0.5) plus one failed-test fresh
	// step at most; theta is tiny so every test fails and costs 0.55.
	s, ts := newTraceServer(t, 0.5, 1.2, TraceConfig{Theta: 0.001, EpsTest: 0.05, Seed: 3})
	denied := 0
	for i := 0; i < 6; i++ {
		resp, _ := postTrace(t, ts.URL, fmt.Sprintf(`{"user_id":"carol","x":%d,"y":%d}`, i%10, (i*3)%10))
		if resp.StatusCode == http.StatusTooManyRequests {
			denied++
		}
	}
	if denied == 0 {
		t.Fatal("no request was denied despite the tiny budget")
	}
	if rem := s.ledger.Remaining("carol"); rem < 0 {
		t.Errorf("remaining %g went negative", rem)
	}
	spent := 1.2 - s.ledger.Remaining("carol")
	if spent > 1.2+1e-9 {
		t.Errorf("spent %g exceeds limit", spent)
	}

	httpResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Trace == nil || stats.Sessions == nil {
		t.Fatalf("stats missing trace/sessions sections: %+v", stats)
	}
	if int(stats.Trace.Denied) != denied {
		t.Errorf("stats denied %d, want %d", stats.Trace.Denied, denied)
	}
	if stats.Trace.Fresh == 0 {
		t.Error("stats fresh is zero after successful steps")
	}
	if stats.Sessions.Users != 1 {
		t.Errorf("stats users %d, want 1", stats.Sessions.Users)
	}
	if stats.Sessions.Journal == nil || stats.Sessions.Journal.Records == 0 {
		t.Error("journal stats missing or empty for a durable store")
	}
}

// TestTraceSurvivesRestart is the in-process durability check: spend via
// traces, reopen the store from the same directory, and verify both the
// budget and the memoized release came back.
func TestTraceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Server, *httptest.Server, *session.Store) {
		st, err := session.Open(session.Config{Limit: 10, Window: time.Hour, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ledger, err := NewLedgerStore(st)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(newTestReporter(t, 2.0), ledger, geo.NewSquare(20))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.EnableTrace(TraceConfig{Theta: 4, EpsTest: 0.5, Seed: 11}); err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s), st
	}

	s1, ts1, st1 := open()
	for i := 0; i < 5; i++ {
		resp, out := postTrace(t, ts1.URL, `{"user_id":"dave","x":2,"y":2}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: %v", i, out)
		}
	}
	remBefore := s1.ledger.Remaining("dave")
	memoBefore, okBefore := s1.ledger.Sessions().Memo("dave")
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2, st2 := open()
	defer ts2.Close()
	defer st2.Close()
	if rem := s2.ledger.Remaining("dave"); math.Abs(rem-remBefore) > 1e-9 {
		t.Fatalf("remaining after restart %g, want %g", rem, remBefore)
	}
	memo, ok := s2.ledger.Sessions().Memo("dave")
	if ok != okBefore || memo != memoBefore {
		t.Fatalf("memo after restart %v ok=%v, want %v ok=%v", memo, ok, memoBefore, okBefore)
	}

	// A stationary user's next step should be able to reuse the replayed
	// memo: drive a few steps and require at least one non-fresh release of
	// exactly the pre-restart location.
	reused := false
	for i := 0; i < 10 && !reused; i++ {
		resp, out := postTrace(t, ts2.URL, `{"user_id":"dave","x":2,"y":2}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-restart step %d: %v", i, out)
		}
		if !out["fresh"].(bool) {
			got := geo.Point{X: out["x"].(float64), Y: out["y"].(float64)}
			if got == memoBefore {
				reused = true
			}
		}
	}
	if okBefore && !reused {
		t.Error("restart never re-released the journaled memo for a stationary user")
	}
}

// TestTraceConcurrentSameUser: predictive steps for one user are serialized
// (by session.Store.Step, which runs one user's steps one at a time), so a
// burst of concurrent requests from a stationary user pays for exactly one
// fresh report and re-releases it to everyone else. Without that
// serialization, several racing requests would each miss the memo and each
// pay full epsilon. The session test
// TestJournalConcurrentStepSameUserSerialized covers the serialization
// itself.
func TestTraceConcurrentSameUser(t *testing.T) {
	const workers = 20
	// theta=50 with epsTest=1 makes the stationary test failure probability
	// ~e^-50: every post-fresh step is a memo hit, deterministically enough.
	s, ts := newTraceServer(t, 2.0, 100, TraceConfig{Theta: 50, EpsTest: 1, Seed: 13})

	var wg sync.WaitGroup
	codes := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/trace", "application/json",
				strings.NewReader(`{"user_id":"frank","x":3,"y":4}`))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
	}

	tsState := s.trace.Load()
	if f := tsState.fresh.Load(); f != 1 {
		t.Errorf("fresh reports = %d, want exactly 1 for a serialized stationary burst", f)
	}
	if h := tsState.memoHits.Load(); h != workers-1 {
		t.Errorf("memo hits = %d, want %d", h, workers-1)
	}
	wantSpent := 2.0 + float64(workers-1)*1.0
	if spent := 100 - s.ledger.Remaining("frank"); math.Abs(spent-wantSpent) > 1e-9 {
		t.Errorf("spent %g, want %g (one fresh + %d memo hits)", spent, wantSpent, workers-1)
	}
}

// TestTraceMetricsExposed: the Prometheus endpoint carries the session and
// trace series.
func TestTraceMetricsExposed(t *testing.T) {
	_, ts := newTraceServer(t, 0.5, 100, TraceConfig{Theta: 4, EpsTest: 0.05})
	for i := 0; i < 3; i++ {
		postTrace(t, ts.URL, `{"user_id":"erin","x":1,"y":1}`)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, series := range []string{
		"geoind_sessions", "geoind_session_journal_records_total",
		"geoind_trace_fresh_total", "geoind_trace_memo_hits_total",
		`endpoint="/v1/trace"`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics output missing %q", series)
		}
	}
}

// TestTraceLongUserIDRejected: every budget-charging endpoint answers 400
// for a user ID longer than the journal can record, charges nothing, and
// leaves a journal that still reopens.
func TestTraceLongUserIDRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := session.Config{Limit: 10, Window: time.Hour, Dir: dir}
	st, err := session.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := NewLedgerStore(st)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(newTestReporter(t, 1), ledger, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableTrace(TraceConfig{Theta: 4, EpsTest: 0.5}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	long := strings.Repeat("x", session.MaxUserLen+1)
	for path, body := range map[string]string{
		"/v1/report":       fmt.Sprintf(`{"user_id":%q,"x":3,"y":3}`, long),
		"/v1/report:batch": fmt.Sprintf(`[{"user_id":%q,"x":3,"y":3}]`, long),
		"/v1/trace":        fmt.Sprintf(`{"user_id":%q,"x":3,"y":3}`, long),
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with a %d-byte user_id: status %d, want 400", path, len(long), resp.StatusCode)
		}
	}
	if n := st.Users(); n != 0 {
		t.Fatalf("rejected requests created %d session entries", n)
	}
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := session.Open(cfg)
	if err != nil {
		t.Fatalf("reopen after rejected long user IDs: %v", err)
	}
	st2.Close()
}

// TestTraceChargesCountEachSpend: geoind_budget_charges_total counts every
// debit a trace step makes, so a fresh step that paid for a failed test
// and a report counts two, as its charges would outside a Step.
func TestTraceChargesCountEachSpend(t *testing.T) {
	const eps, epsTest = 0.5, 2.0
	_, ts := newTraceServer(t, eps, 100, TraceConfig{Theta: 0.5, EpsTest: epsTest})
	var spends int
	var spent float64
	for i, p := range [][2]float64{{1, 1}, {19, 19}, {1, 19}, {19, 1}} {
		resp, out := postTrace(t, ts.URL, fmt.Sprintf(`{"user_id":"gus","x":%g,"y":%g}`, p[0], p[1]))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: status %d", i, resp.StatusCode)
		}
		cost := out["eps_spent"].(float64)
		switch {
		case cost == eps || cost == epsTest: // first step, or memo hit
			spends++
		case math.Abs(cost-(eps+epsTest)) < 1e-9: // failed test, then report
			spends += 2
		default:
			t.Fatalf("step %d: eps_spent %g", i, cost)
		}
		spent += cost
	}
	if spends < 5 {
		t.Fatalf("only %d spends over 4 steps: no step paid for a test and a report", spends)
	}
	samples := scrape(t, ts.URL)
	if got := samples["geoind_budget_charges_total"]; got != float64(spends) {
		t.Errorf("budget charges %g, want %d (one per spend)", got, spends)
	}
	if got := samples["geoind_budget_eps_charged_total"]; math.Abs(got-spent) > 1e-9 {
		t.Errorf("eps charged %g, want %g", got, spent)
	}
}
