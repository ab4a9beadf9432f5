// Package trajectory extends the library from single reports to mobility
// traces. Repeated reports compose linearly (§2.2 of the paper): n reports
// cost n*eps, which exhausts realistic budgets within a day. The package
// implements the standard remedy from the GeoInd literature — the
// *predictive mechanism* of Chatzikokolakis, Palamidessi and Stronati
// (PETS 2014) — alongside the naive independent reporter, plus a seeded
// generator of synthetic mobility traces to evaluate them on.
//
// The predictive mechanism exploits temporal correlation: a user who has not
// moved far can keep reporting the previously released location. Each step
// runs a *private test*: it compares d(x_t, prediction) against a threshold
// theta after adding Laplace noise with scale 1/epsTest. Distance to a fixed
// point is 1-Lipschitz in the GeoInd metric, so the noisy test is itself
// epsTest-GeoInd. On a pass, the prediction is re-released and the step
// costs only epsTest; on a failure, the underlying mechanism reports afresh
// for epsTest + epsReport. Stationary stretches become nearly free.
package trajectory

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"geoind/internal/geo"
)

// Reporter is the underlying single-report mechanism (geoind.Mechanism
// satisfies it). ReportCtx runs under the caller's context, so a canceled
// step returns the mechanism's ctx.Err().
type Reporter interface {
	ReportCtx(ctx context.Context, x geo.Point) (geo.Point, error)
	Epsilon() float64
}

// Trace is one user's sequence of true locations at uniform time steps.
type Trace struct {
	User   int
	Points []geo.Point
}

// Step is one released location together with its budget cost.
type Step struct {
	// Released is the reported location for this time step.
	Released geo.Point
	// Spent is the privacy budget consumed at this step.
	Spent float64
	// Fresh reports whether the underlying mechanism ran (false = the
	// prediction was re-released).
	Fresh bool
}

// Independent releases every point of the trace through the mechanism,
// spending mech.Epsilon() per step. It is the baseline the predictive
// mechanism is measured against.
func Independent(ctx context.Context, mech Reporter, trace []geo.Point) ([]Step, error) {
	out := make([]Step, 0, len(trace))
	for _, x := range trace {
		z, err := mech.ReportCtx(ctx, x)
		if err != nil {
			return nil, err
		}
		out = append(out, Step{Released: z, Spent: mech.Epsilon(), Fresh: true})
	}
	return out, nil
}

// PredictiveConfig parameterizes the predictive mechanism.
type PredictiveConfig struct {
	// Theta is the test threshold (km): predictions within theta of the
	// true location (pre-noise) tend to pass.
	Theta float64
	// EpsTest is the budget of each private test (typically a small
	// fraction of the report budget).
	EpsTest float64
}

// Validate checks the configuration.
func (c PredictiveConfig) Validate() error {
	if !(c.Theta > 0) {
		return fmt.Errorf("trajectory: theta %g must be positive", c.Theta)
	}
	if !(c.EpsTest > 0) || math.IsInf(c.EpsTest, 0) {
		return fmt.Errorf("trajectory: epsTest %g must be positive and finite", c.EpsTest)
	}
	return nil
}

// State is the session-resident predictive-mechanism state between steps:
// the last released location, if any. It lives wherever the caller keeps
// per-user state (the server keeps it in internal/session; the whole-trace
// helpers keep it on the stack).
type State struct {
	// HasRelease reports whether a previous release exists to predict from.
	HasRelease bool
	// Release is the last released (sanitized) location.
	Release geo.Point
}

// Budget meters one user's spend for the stepwise API. Spend debits before
// any noise is drawn (admission control); Refund returns budget whose
// release never happened. The server backs this with the session store;
// Unmetered is the whole-trace evaluation backing.
type Budget interface {
	Spend(eps float64) error
	Refund(eps float64)
}

// Unmetered is a Budget that admits everything (evaluation runs, where the
// question is how much *would* be spent).
type Unmetered struct{}

// Spend implements Budget.
func (Unmetered) Spend(float64) error { return nil }

// Refund implements Budget.
func (Unmetered) Refund(float64) {}

// StepPredictive advances the predictive mechanism by one point: one true
// location in, one released location out, with the cross-step state passed
// explicitly. With a prior release it first charges epsTest and runs the
// private test; on a pass the previous release is re-released for just
// epsTest. On a failure (or with no prior release) it charges the report
// budget and releases afresh.
//
// Budget is charged before any noise is drawn, and the charges compose
// strictly with what was revealed: once the test noise has been drawn its
// epsTest stays spent for good, because the test's outcome is observable
// no matter how the step ends (a pass re-releases, a fail surfaces as a
// fresh report, a budget denial, or a mechanism error). Refunding it would
// let a caller run epsTest-DP distance probes for free. Only budget whose
// noise was never drawn is refunded: the report epsilon when the mechanism
// fails (a canceled ctx included), which on a first step (no prior release,
// no test) is the whole charge.
func StepPredictive(ctx context.Context, mech Reporter, budget Budget, st State, x geo.Point, cfg PredictiveConfig, rng *rand.Rand) (Step, State, error) {
	if err := cfg.Validate(); err != nil {
		return Step{}, st, err
	}
	if rng == nil {
		return Step{}, st, fmt.Errorf("trajectory: nil rng")
	}
	charged := 0.0
	if st.HasRelease {
		if err := budget.Spend(cfg.EpsTest); err != nil {
			return Step{}, st, err
		}
		charged = cfg.EpsTest
		noisy := x.Dist(st.Release) + laplace1D(rng, 1/cfg.EpsTest)
		if noisy <= cfg.Theta {
			return Step{Released: st.Release, Spent: cfg.EpsTest, Fresh: false}, st, nil
		}
		// Failed test: the epsTest is spent either way; fall through to a
		// fresh report.
	}
	if err := budget.Spend(mech.Epsilon()); err != nil {
		// No refund of the epsTest already charged: the test ran, and its
		// failure is observable through this very denial.
		return Step{}, st, err
	}
	charged += mech.Epsilon()
	z, err := mech.ReportCtx(ctx, x)
	if err != nil {
		// The report never happened, so its epsilon goes back; the test's
		// epsTest (when a test ran) stays spent.
		budget.Refund(mech.Epsilon())
		return Step{}, st, err
	}
	return Step{Released: z, Spent: charged, Fresh: true}, State{HasRelease: true, Release: z}, nil
}

// Predictive runs the predictive mechanism over a trace. The first step is
// always a fresh report. The rng drives the test noise (the underlying
// mechanism keeps its own randomness). It is the whole-trace loop over
// StepPredictive with an unmetered budget.
func Predictive(ctx context.Context, mech Reporter, trace []geo.Point, cfg PredictiveConfig, rng *rand.Rand) ([]Step, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("trajectory: nil rng")
	}
	out := make([]Step, 0, len(trace))
	var st State
	for _, x := range trace {
		step, next, err := StepPredictive(ctx, mech, Unmetered{}, st, x, cfg, rng)
		if err != nil {
			return nil, err
		}
		st = next
		out = append(out, step)
	}
	return out, nil
}

// laplace1D samples from the Laplace distribution with the given scale.
func laplace1D(rng *rand.Rand, scale float64) float64 {
	u := rng.Float64() - 0.5
	sign := 1.0
	if u < 0 {
		sign = -1
		u = -u
	}
	// u in [0, 0.5): 1-2u in (0, 1], log is safe.
	return -scale * sign * math.Log(1-2*u)
}

// Summary aggregates a released trace.
type Summary struct {
	Steps      int
	Fresh      int
	TotalSpent float64
	// MeanLoss is the mean Euclidean distance between true and released
	// locations.
	MeanLoss float64
}

// Summarize computes aggregate statistics of a run against the true trace.
func Summarize(trace []geo.Point, steps []Step) (Summary, error) {
	if len(trace) != len(steps) {
		return Summary{}, fmt.Errorf("trajectory: %d true points vs %d steps", len(trace), len(steps))
	}
	var s Summary
	s.Steps = len(steps)
	for i, st := range steps {
		if st.Fresh {
			s.Fresh++
		}
		s.TotalSpent += st.Spent
		s.MeanLoss += trace[i].Dist(st.Released)
	}
	if s.Steps > 0 {
		s.MeanLoss /= float64(s.Steps)
	}
	return s, nil
}

// GenConfig parameterizes synthetic trace generation.
type GenConfig struct {
	// Region is the planar domain.
	Region geo.Rect
	// Anchors are locations users dwell at (POIs/home/work); at least one.
	Anchors []geo.Point
	// Steps is the trace length.
	Steps int
	// StayProb is the probability of dwelling (tiny jitter) at each step.
	StayProb float64
	// LocalSigma is the dwell jitter std-dev (km).
	LocalSigma float64
	// JumpProb is the probability of teleporting to a random anchor
	// (vehicle trip); otherwise the user walks a Gaussian step of
	// WalkSigma.
	JumpProb  float64
	WalkSigma float64
	// Seed fixes the randomness.
	Seed uint64
}

// Validate checks the generation parameters.
func (c GenConfig) Validate() error {
	switch {
	case c.Region.Width() <= 0 || c.Region.Height() <= 0:
		return fmt.Errorf("trajectory: degenerate region")
	case len(c.Anchors) == 0:
		return fmt.Errorf("trajectory: no anchors")
	case c.Steps < 1:
		return fmt.Errorf("trajectory: steps %d < 1", c.Steps)
	case c.StayProb < 0 || c.StayProb > 1 || c.JumpProb < 0 || c.JumpProb > 1 || c.StayProb+c.JumpProb > 1:
		return fmt.Errorf("trajectory: invalid stay/jump probabilities %g/%g", c.StayProb, c.JumpProb)
	case c.LocalSigma <= 0 || c.WalkSigma <= 0:
		return fmt.Errorf("trajectory: sigmas must be positive")
	}
	return nil
}

// Generate produces n traces under the anchor-dwell random-walk model:
// users mostly dwell near an anchor, occasionally walk, and sometimes jump
// to a different anchor. This produces the temporal correlation the
// predictive mechanism exploits, with realistic breaks.
func Generate(n int, cfg GenConfig) ([]Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("trajectory: n=%d traces", n)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x7ace))
	traces := make([]Trace, n)
	for u := 0; u < n; u++ {
		cur := cfg.Anchors[rng.IntN(len(cfg.Anchors))]
		pts := make([]geo.Point, 0, cfg.Steps)
		for s := 0; s < cfg.Steps; s++ {
			r := rng.Float64()
			switch {
			case r < cfg.StayProb:
				cur = cur.Add(rng.NormFloat64()*cfg.LocalSigma, rng.NormFloat64()*cfg.LocalSigma)
			case r < cfg.StayProb+cfg.JumpProb:
				cur = cfg.Anchors[rng.IntN(len(cfg.Anchors))]
			default:
				cur = cur.Add(rng.NormFloat64()*cfg.WalkSigma, rng.NormFloat64()*cfg.WalkSigma)
			}
			cur = cfg.Region.Clamp(cur)
			pts = append(pts, cur)
		}
		traces[u] = Trace{User: u, Points: pts}
	}
	return traces, nil
}
