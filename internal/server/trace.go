package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"

	"geoind/internal/geo"
	"geoind/internal/session"
	"geoind/internal/trajectory"
)

// TraceConfig parameterizes the stateful /v1/trace endpoint.
type TraceConfig struct {
	// Theta is the predictive test threshold in km: while the user stays
	// within ~theta of their last release, the test tends to pass and the
	// step costs only EpsTest.
	Theta float64
	// EpsTest is the privacy budget of each private test (typically a small
	// fraction of the report epsilon).
	EpsTest float64
	// Seed fixes the test-noise randomness (0 is a valid fixed seed).
	Seed uint64
}

// traceState is the server-side state of the trace pipeline. The per-user
// state (budget, last release) and the per-user step serialization live in
// the session store; this holds only the shared configuration, the
// test-noise rng and the counters.
type traceState struct {
	cfg TraceConfig
	rng *rand.Rand // over a locked source: safe for concurrent handlers

	fresh       atomic.Int64
	memoHits    atomic.Int64
	independent atomic.Int64
	denied      atomic.Int64
}

// lockedSource serializes a rand.Source for concurrent use. rand/v2's Rand
// keeps no state outside its source, so locking Uint64 is sufficient.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

// EnableTrace switches on POST /v1/trace with the given predictive-test
// configuration. It requires budget enforcement: per-user sticky trace state
// without per-user budget accounting would be privacy theater. Call before
// serving traffic.
func (s *Server) EnableTrace(cfg TraceConfig) error {
	if s.ledger == nil {
		return fmt.Errorf("server: trace requires a budget ledger (per-user sessions track spend)")
	}
	pcfg := trajectory.PredictiveConfig{Theta: cfg.Theta, EpsTest: cfg.EpsTest}
	if err := pcfg.Validate(); err != nil {
		return fmt.Errorf("server: trace config: %w", err)
	}
	if worst := s.eps + cfg.EpsTest; s.ledger.Limit() < worst {
		return fmt.Errorf("server: ledger limit %g below worst-case trace step cost %g (eps + epsTest): no moving user could ever report",
			s.ledger.Limit(), worst)
	}
	s.trace.Store(&traceState{
		cfg: cfg,
		rng: rand.New(&lockedSource{src: rand.NewPCG(cfg.Seed, 0x7ace)}),
	})
	return nil
}

// TraceRequest is the /v1/trace request body: one point of a user's
// mobility trace.
type TraceRequest struct {
	// UserID identifies the sticky session and budget account (required).
	UserID string `json:"user_id"`
	// X, Y are the true planar coordinates in km.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Mode selects the reporting strategy: "predictive" (default) runs the
	// test-then-release mechanism against the session's last release;
	// "independent" pays full epsilon for a fresh report (the baseline).
	Mode string `json:"mode,omitempty"`
}

// The two values of TraceRequest.Mode.
const (
	modePredictive  = "predictive"
	modeIndependent = "independent"
)

// TraceResponse is the /v1/trace response body.
type TraceResponse struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// EpsSpent is this step's budget cost: epsTest for a re-released
	// prediction, epsTest+eps (or eps on the session's first step) for a
	// fresh report.
	EpsSpent float64 `json:"eps_spent"`
	// Fresh reports whether the underlying mechanism ran (false = the
	// session's previous release was re-released).
	Fresh     bool    `json:"fresh"`
	Mode      string  `json:"mode"`
	Remaining float64 `json:"remaining_budget"`
	Mechanism string  `json:"mechanism"`
}

// serverReporter adapts the server's cancelable report path to the
// context-free trajectory.Reporter interface for the duration of one request:
// Report runs under the request context (timeout + client disconnect).
type serverReporter struct {
	s   *Server
	ctx context.Context
}

func (m serverReporter) Report(x geo.Point) (geo.Point, error) { return m.s.mech.ReportCtx(m.ctx, x) }
func (m serverReporter) Epsilon() float64                      { return m.s.eps }

// handleTrace serves POST /v1/trace: one true location in, one released
// location out, with per-user sticky state (budget window + last release) in
// the session store. Each step is one session.Step: steps for the same user
// run one at a time (so concurrent requests neither double-pay for fresh
// reports nor re-release a stale memo), and the step's spends and memo
// write reach the journal as a single record that is durable before the
// response leaves. Budget is charged before any noise is drawn; on a failed
// or canceled release the report epsilon is refunded, while the prediction
// test's epsTest — once its noise has been drawn — stays spent, because the
// test outcome is observable through the response either way (see
// trajectory.StepPredictive).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST only"})
		return
	}
	ts := s.trace.Load()
	if ts == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{
			"trace endpoint disabled (start the server with -trace-theta)"})
		return
	}
	c := getCodecBuf()
	defer c.release()
	var req TraceRequest
	if err := c.decodeTrace(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"invalid JSON: " + err.Error()})
		return
	}
	if msg := userIDError(req.UserID); msg != "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{msg})
		return
	}
	x := geo.Point{X: req.X, Y: req.Y}
	if !s.region.ContainsClosed(x) {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			fmt.Sprintf("location %v outside service region %v", x, s.region)})
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = modePredictive
	}
	if mode != modePredictive && mode != modeIndependent {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			fmt.Sprintf("unknown mode %q (want \"predictive\" or \"independent\")", req.Mode)})
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	var step trajectory.Step
	var remaining float64
	err := s.ledger.Sessions().Step(req.UserID, func(tx *session.Tx) error {
		defer func() {
			s.metrics.chargeBudget(tx.Charged())
			s.metrics.refundBudget(tx.Refunded())
		}()
		var err error
		if mode == modeIndependent {
			step, err = s.independentStep(ctx, tx, x)
		} else {
			step, err = s.predictiveStep(ctx, tx, ts, x)
		}
		remaining = tx.Remaining()
		return err
	})
	switch {
	case errors.Is(err, ErrBudgetExhausted):
		ts.denied.Add(1)
		writeLedgerError(w, err)
		return
	case errors.Is(err, session.ErrJournalFailed):
		writeLedgerError(w, err)
		return
	case err != nil:
		writeReportError(w, err)
		return
	}
	switch {
	case mode == modeIndependent:
		ts.independent.Add(1)
	case step.Fresh:
		ts.fresh.Add(1)
	default:
		ts.memoHits.Add(1)
	}
	s.writeTrace(w, c, step.Released, step.Spent, step.Fresh, mode, remaining)
}

// predictiveStep runs the test-then-release mechanism against the session's
// memo and memoizes a fresh release as the next prediction.
func (s *Server) predictiveStep(ctx context.Context, tx *session.Tx, ts *traceState, x geo.Point) (trajectory.Step, error) {
	memo, ok := tx.Memo()
	st := trajectory.State{HasRelease: ok, Release: memo}
	pcfg := trajectory.PredictiveConfig{Theta: ts.cfg.Theta, EpsTest: ts.cfg.EpsTest}
	step, next, err := trajectory.StepPredictive(serverReporter{s, ctx}, tx, st, x, pcfg, ts.rng)
	if err == nil && step.Fresh {
		tx.SetMemo(next.Release)
	}
	return step, err
}

// independentStep pays full epsilon for a fresh report, refunding it when
// the report fails.
func (s *Server) independentStep(ctx context.Context, tx *session.Tx, x geo.Point) (trajectory.Step, error) {
	eps := s.eps
	if err := tx.Spend(eps); err != nil {
		return trajectory.Step{}, err
	}
	z, err := s.mech.ReportCtx(ctx, x)
	if err != nil {
		tx.Refund(eps)
		return trajectory.Step{}, err
	}
	return trajectory.Step{Released: z, Spent: eps, Fresh: true}, nil
}
