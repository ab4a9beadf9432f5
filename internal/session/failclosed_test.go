package session_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"geoind/internal/geo"
	"geoind/internal/server"
	"geoind/internal/session"
)

// identity is a Reporter that releases the true point: the fail-closed path
// does not depend on the mechanism.
type identity struct{}

func (identity) ReportCtx(_ context.Context, x geo.Point) (geo.Point, error) { return x, nil }
func (identity) ReportBatchCtx(_ context.Context, xs []geo.Point) ([]geo.Point, error) {
	return xs, nil
}
func (identity) Epsilon() float64 { return 1 }
func (identity) Name() string     { return "identity" }

// TestJournalFailClosedHTTP: once a journal write fails, every budget-
// charging endpoint answers 503, readiness flips to 503, and the budget the
// failing request charged stays spent.
func TestJournalFailClosedHTTP(t *testing.T) {
	st, err := session.Open(session.Config{Limit: 10, Window: time.Hour, Dir: t.TempDir(), CompactEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := server.NewLedgerStore(st)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(identity{}, ledger, geo.NewSquare(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableTrace(server.TraceConfig{Theta: 4, EpsTest: 0.5}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	ready := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if c := post("/v1/trace", `{"user_id":"u","x":3,"y":3}`); c != http.StatusOK {
		t.Fatalf("trace before the fault: %d", c)
	}
	if c := ready(); c != http.StatusOK {
		t.Fatalf("readiness before the fault: %d", c)
	}
	before := st.Remaining("u")

	session.FailJournalWrites(st, syscall.ENOSPC)
	if c := post("/v1/trace", `{"user_id":"u","x":3,"y":3}`); c != http.StatusServiceUnavailable {
		t.Fatalf("trace on a failing journal: %d, want 503", c)
	}
	if r := st.Remaining("u"); r >= before {
		t.Fatalf("remaining %g after the failed step, want below %g (spend kept, never refunded)", r, before)
	}
	for path, body := range map[string]string{
		"/v1/trace":        `{"user_id":"v","x":3,"y":3,"mode":"independent"}`,
		"/v1/report":       `{"user_id":"v","x":3,"y":3}`,
		"/v1/report:batch": `[{"user_id":"v","x":3,"y":3}]`,
	} {
		if c := post(path, body); c != http.StatusServiceUnavailable {
			t.Errorf("%s after the latch: %d, want 503", path, c)
		}
	}
	if r := st.Remaining("v"); r != 10 {
		t.Errorf("refused requests charged budget: remaining %g", r)
	}
	if c := ready(); c != http.StatusServiceUnavailable {
		t.Fatalf("readiness after the fault: %d, want 503", c)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sessions == nil || stats.Sessions.Journal == nil || stats.Sessions.Journal.Error == "" {
		t.Fatalf("stats do not report the journal failure: %+v", stats.Sessions)
	}
	_ = st.Close()
}
