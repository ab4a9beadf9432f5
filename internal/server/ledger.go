// Package server provides a production-style location-sanitization service
// around the library's mechanisms: an HTTP JSON API plus a per-user privacy
// budget ledger enforcing the composability accounting of §2.2 — n reports
// at budget eps are equivalent to one report at n*eps, so a deployment must
// cap each user's total spend per time window.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"geoind/internal/session"
)

// ErrBudgetExhausted is returned by Spend when a user's window budget cannot
// cover the request. It is the session store's error value, so comparisons
// hold across layers.
var ErrBudgetExhausted = session.ErrBudgetExhausted

// Ledger tracks per-user privacy budget consumption over rolling windows.
// It is a thin view over a session.Store: the store owns all per-user state
// (spend, window, last-release memo) and, when opened with a journal
// directory, its durability. The zero value is not usable; call NewLedger
// or NewLedgerStore.
type Ledger struct {
	store *session.Store
}

// NewLedger creates a memory-only ledger allowing each user to spend at
// most limit epsilon per window. A nil clock uses time.Now. For a durable
// ledger, open a session.Store with a Dir and wrap it with NewLedgerStore.
func NewLedger(limit float64, window time.Duration, clock func() time.Time) (*Ledger, error) {
	st, err := session.Open(session.Config{Limit: limit, Window: window, Clock: clock})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return &Ledger{store: st}, nil
}

// NewLedgerStore wraps an existing session store (typically journal-backed)
// as a Ledger.
func NewLedgerStore(st *session.Store) (*Ledger, error) {
	if st == nil {
		return nil, fmt.Errorf("server: nil session store")
	}
	return &Ledger{store: st}, nil
}

// Sessions exposes the underlying session store (memo state, stats,
// durability control).
func (l *Ledger) Sessions() *session.Store { return l.store }

// Limit returns the per-window budget.
func (l *Ledger) Limit() float64 { return l.store.Limit() }

// Window returns the accounting window.
func (l *Ledger) Window() time.Duration { return l.store.Window() }

// Spend debits eps from the user's window budget, or returns
// ErrBudgetExhausted (leaving the ledger unchanged) when the remaining
// budget is insufficient.
func (l *Ledger) Spend(user string, eps float64) error { return l.store.Spend(user, eps) }

// Refund credits eps back to the user's window budget, clamping at zero
// spend. It undoes a Spend whose report never happened (request canceled,
// deadline exceeded, mechanism failure): the user revealed nothing, so the
// composability accounting of §2.2 owes them the budget back. It errs only
// when the session journal has failed, and then the budget stays spent.
func (l *Ledger) Refund(user string, eps float64) error { return l.store.Refund(user, eps) }

// Remaining returns the user's unspent budget in the current window. It is
// a pure read: querying arbitrary (possibly bogus) user IDs creates no
// ledger state.
func (l *Ledger) Remaining(user string) float64 { return l.store.Remaining(user) }

// Users returns the number of users with live ledger entries. Idle entries
// are garbage-collected (window elapsed with zero spend, or two windows
// idle), so this tracks active users rather than growing without bound.
func (l *Ledger) Users() int { return l.store.Users() }

// ledgerEntry is the legacy JSON serialization of one user's state. Memo
// fields are included when present so a JSON save/restore cycle keeps the
// predictive trace state; old snapshots without them load fine.
type ledgerEntry struct {
	Spent       float64   `json:"spent"`
	WindowStart time.Time `json:"window_start"`
	MemoX       *float64  `json:"memo_x,omitempty"`
	MemoY       *float64  `json:"memo_y,omitempty"`
}

// ledgerSnapshot is the serialized ledger state.
type ledgerSnapshot struct {
	Limit  float64                 `json:"limit"`
	Window time.Duration           `json:"window_ns"`
	Users  map[string]*ledgerEntry `json:"users"`
}

// Save writes the ledger state as JSON. This is the legacy single-file
// persistence path (-ledger-file); journal-backed stores persist
// incrementally on their own and use Save only for migration/export.
func (l *Ledger) Save(w io.Writer) error {
	states := l.store.Export()
	snap := ledgerSnapshot{
		Limit:  l.store.Limit(),
		Window: l.store.Window(),
		Users:  make(map[string]*ledgerEntry, len(states)),
	}
	for _, st := range states {
		e := &ledgerEntry{Spent: st.Spent, WindowStart: st.WindowStart}
		if st.HasMemo {
			x, y := st.Memo.X, st.Memo.Y
			e.MemoX, e.MemoY = &x, &y
		}
		snap.Users[st.User] = e
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// Load restores ledger state saved by Save. Limit and window of the
// snapshot must match the ledger's configuration; entries are replaced (and
// journaled, when the underlying store is durable).
func (l *Ledger) Load(r io.Reader) error {
	var snap ledgerSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("server: ledger load: %w", err)
	}
	if snap.Limit != l.store.Limit() || snap.Window != l.store.Window() {
		return fmt.Errorf("server: ledger load: snapshot limit/window (%g, %v) do not match (%g, %v)",
			snap.Limit, snap.Window, l.store.Limit(), l.store.Window())
	}
	states := make([]session.State, 0, len(snap.Users))
	for u, e := range snap.Users {
		if e == nil || e.Spent < 0 {
			return fmt.Errorf("server: ledger load: invalid entry for user %q", u)
		}
		st := session.State{User: u, Spent: e.Spent, WindowStart: e.WindowStart}
		if e.MemoX != nil && e.MemoY != nil {
			st.HasMemo = true
			st.Memo.X, st.Memo.Y = *e.MemoX, *e.MemoY
		}
		states = append(states, st)
	}
	if err := l.store.Replace(states); err != nil {
		return fmt.Errorf("server: ledger load: %w", err)
	}
	return nil
}
