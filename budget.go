package geoind

import (
	"context"
	"fmt"
	"io"
	"time"

	"geoind/internal/server"
	"geoind/internal/session"
)

// ErrBudgetExhausted is returned by Budgeted.ReportCtx when a user's window
// budget cannot cover another report.
var ErrBudgetExhausted = server.ErrBudgetExhausted

// Budgeted wraps a Mechanism with per-user privacy budget accounting. By the
// composability property of GeoInd (§2.2 of the paper), n reports at budget
// eps are jointly equivalent to one report at n*eps, so any deployment that
// serves repeated reports must cap each user's total spend per time window —
// this type enforces that cap on the client/library side (the HTTP service
// in cmd/geoind-server enforces the same contract server-side).
type Budgeted struct {
	mech   Mechanism
	ledger *server.Ledger
}

// NewBudgeted wraps mech so each user may spend at most limit epsilon per
// window, keeping the accounting in memory. limit must cover at least one
// report.
func NewBudgeted(mech Mechanism, limit float64, window time.Duration) (*Budgeted, error) {
	return NewBudgetedDurable(mech, limit, window, "")
}

// NewBudgetedDurable is NewBudgeted with crash-safe accounting: per-user
// state is journaled to dir (append-only log plus periodic snapshots) and
// replayed on the next open, so a process crash cannot reset anyone's spend.
// Call Close when done to flush and compact the journal. An empty dir keeps
// the accounting in memory, as NewBudgeted does.
func NewBudgetedDurable(mech Mechanism, limit float64, window time.Duration, dir string) (*Budgeted, error) {
	if mech == nil {
		return nil, fmt.Errorf("geoind: nil mechanism")
	}
	if limit < mech.Epsilon() {
		return nil, fmt.Errorf("geoind: budget limit %g below per-report epsilon %g", limit, mech.Epsilon())
	}
	st, err := session.Open(session.Config{Limit: limit, Window: window, Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("geoind: %w", err)
	}
	l, err := server.NewLedgerStore(st)
	if err != nil {
		_ = st.Close()
		return nil, fmt.Errorf("geoind: %w", err)
	}
	return &Budgeted{mech: mech, ledger: l}, nil
}

// Close flushes and compacts the durable accounting state, when the Budgeted
// was opened with NewBudgetedDurable. It is a no-op error-free close for
// memory-only instances.
func (b *Budgeted) Close() error { return b.ledger.Sessions().Close() }

// ReportCtx sanitizes x on behalf of user, debiting the per-report epsilon
// from the user's window budget. It returns ErrBudgetExhausted (without
// reporting anything) when the budget cannot cover the report. Budget is
// charged only on success: a report that fails reveals nothing, so its
// charge is refunded. Canceling ctx makes an in-flight cold report return
// promptly with ctx.Err(), refunded likewise.
//
// The ledger is debited before sampling (not after) so that concurrent
// requests from one user can never jointly exceed the cap through a
// check-then-charge race; the refund on failure restores the charge-only-on-
// success semantics.
func (b *Budgeted) ReportCtx(ctx context.Context, user string, x Point) (Point, error) {
	eps := b.mech.Epsilon()
	if err := b.ledger.Spend(user, eps); err != nil {
		return Point{}, err
	}
	z, err := b.mech.ReportCtx(ctx, x)
	if err != nil {
		b.ledger.Refund(user, eps)
		return Point{}, err
	}
	return z, nil
}

// ReportBatchCtx sanitizes a batch of points on behalf of user, debiting
// len(points) * Epsilon() from the user's window budget atomically: either
// the whole batch is charged and reported, or the error is returned and the
// ledger is left unchanged — a batch can never be partially charged. The
// charge is taken upfront (atomic no-overdraft check) and refunded in full
// on any failure: a batch canceled mid-flight returns ctx.Err() with the
// budget unchanged, since no sanitized location left the mechanism. This is
// the client-side counterpart of the server's POST /v1/report:batch
// all-or-nothing rule.
func (b *Budgeted) ReportBatchCtx(ctx context.Context, user string, points []Point) ([]Point, error) {
	if len(points) == 0 {
		return []Point{}, nil
	}
	total := float64(len(points)) * b.mech.Epsilon()
	if err := b.ledger.Spend(user, total); err != nil {
		return nil, err
	}
	out, err := b.mech.ReportBatchCtx(ctx, points)
	if err != nil {
		b.ledger.Refund(user, total)
		return nil, err
	}
	return out, nil
}

// Remaining returns the user's unspent budget in the current window.
func (b *Budgeted) Remaining(user string) float64 { return b.ledger.Remaining(user) }

// Limit returns the per-window budget cap.
func (b *Budgeted) Limit() float64 { return b.ledger.Limit() }

// Epsilon returns the per-report budget.
func (b *Budgeted) Epsilon() float64 { return b.mech.Epsilon() }

// SaveLedger persists the accounting state as JSON.
func (b *Budgeted) SaveLedger(w io.Writer) error { return b.ledger.Save(w) }

// LoadLedger restores accounting state written by SaveLedger.
func (b *Budgeted) LoadLedger(r io.Reader) error { return b.ledger.Load(r) }
