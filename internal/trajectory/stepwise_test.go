package trajectory

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"geoind/internal/geo"
)

// recordingBudget is a Budget that tracks net charged budget and can be
// armed to deny spends.
type recordingBudget struct {
	charged float64
	deny    bool
}

var errDenied = errors.New("denied")

func (b *recordingBudget) Spend(eps float64) error {
	if b.deny {
		return errDenied
	}
	b.charged += eps
	return nil
}

func (b *recordingBudget) Refund(eps float64) { b.charged -= eps }

// failingReporter errors on every report.
type failingReporter struct{ eps float64 }

func (f failingReporter) ReportCtx(context.Context, geo.Point) (geo.Point, error) {
	return geo.Point{}, errors.New("mechanism down")
}
func (f failingReporter) Epsilon() float64 { return f.eps }

// TestStepPredictiveMatchesWholeTrace: looping StepPredictive over a trace
// must be bit-identical to the whole-trace Predictive (same rng consumption,
// same costs, same releases).
func TestStepPredictiveMatchesWholeTrace(t *testing.T) {
	traces, err := Generate(2, genCfg(17))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PredictiveConfig{Theta: 2.0, EpsTest: 0.1}
	for _, tr := range traces {
		whole, err := Predictive(context.Background(), newPL(t, 1.0, 51), tr.Points, cfg, rand.New(rand.NewPCG(5, 5)))
		if err != nil {
			t.Fatal(err)
		}
		mech := newPL(t, 1.0, 51)
		rng := rand.New(rand.NewPCG(5, 5))
		var st State
		for i, x := range tr.Points {
			step, next, err := StepPredictive(context.Background(), mech, Unmetered{}, st, x, cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			st = next
			if step != whole[i] {
				t.Fatalf("step %d: stepwise %+v != whole-trace %+v", i, step, whole[i])
			}
		}
	}
}

func TestStepPredictiveBudgetAccounting(t *testing.T) {
	mech := newPL(t, 1.0, 61)
	cfg := PredictiveConfig{Theta: 2.0, EpsTest: 0.25}
	rng := rand.New(rand.NewPCG(6, 6))
	b := &recordingBudget{}

	// First step: no prior release, charges exactly epsReport.
	step, st, err := StepPredictive(context.Background(), mech, b, State{}, geo.Point{X: 5, Y: 5}, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasRelease || !step.Fresh || math.Abs(b.charged-1.0) > 1e-12 {
		t.Fatalf("first step: %+v charged=%g", step, b.charged)
	}

	// Subsequent steps: net charge always equals the step's Spent.
	for i := 0; i < 50; i++ {
		before := b.charged
		step, st, err = StepPredictive(context.Background(), mech, b, st, geo.Point{X: 5, Y: 5}, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs((b.charged-before)-step.Spent) > 1e-12 {
			t.Fatalf("step %d: charged %g but Spent %g", i, b.charged-before, step.Spent)
		}
	}

	// Denied budget: nothing charged, state unchanged.
	b.deny = true
	prev := st
	if _, st2, err := StepPredictive(context.Background(), mech, b, st, geo.Point{X: 5, Y: 5}, cfg, rng); err == nil || st2 != prev {
		t.Fatalf("denied spend: err=%v state=%+v", err, st2)
	}
}

// TestStepPredictiveRefundsOnMechanismFailure: when the underlying mechanism
// errors, or the caller's ctx cancels the release, only the report epsilon
// is refunded. The private test already ran — its outcome is observable no
// matter how the step ends — so its epsTest stays spent; refunding it would
// hand out free distance probes.
func TestStepPredictiveRefundsOnMechanismFailure(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		mech Reporter
	}{
		{"mechanism error", context.Background(), failingReporter{eps: 1}},
		{"canceled ctx", canceled, newPL(t, 1, 83)},
	} {
		cfg := PredictiveConfig{Theta: 0.001, EpsTest: 100} // test noise ~0: always fails the test
		rng := rand.New(rand.NewPCG(7, 7))
		b := &recordingBudget{}
		st := State{HasRelease: true, Release: geo.Point{X: 0, Y: 0}}
		_, st2, err := StepPredictive(tc.ctx, tc.mech, b, st, geo.Point{X: 19, Y: 19}, cfg, rng)
		if err == nil {
			t.Fatalf("%s: failure not propagated", tc.name)
		}
		if math.Abs(b.charged-cfg.EpsTest) > 1e-12 {
			t.Fatalf("%s: net charge %g after failed release, want epsTest %g kept", tc.name, b.charged, cfg.EpsTest)
		}
		if st2 != st {
			t.Fatalf("%s: state mutated on failure: %+v", tc.name, st2)
		}

		// First step (no prior release, no test run): the whole charge
		// comes back — nothing was revealed.
		b2 := &recordingBudget{}
		_, _, err = StepPredictive(tc.ctx, tc.mech, b2, State{}, geo.Point{X: 19, Y: 19}, cfg, rng)
		if err == nil {
			t.Fatalf("%s: failure not propagated on first step", tc.name)
		}
		if math.Abs(b2.charged) > 1e-12 {
			t.Fatalf("%s: net charge %g after failed first release, want 0", tc.name, b2.charged)
		}
	}
}

// cappedBudget admits spends while the running total stays within limit —
// the shape of a nearly exhausted ledger window.
type cappedBudget struct {
	charged float64
	limit   float64
}

func (b *cappedBudget) Spend(eps float64) error {
	if b.charged+eps > b.limit {
		return errDenied
	}
	b.charged += eps
	return nil
}

func (b *cappedBudget) Refund(eps float64) { b.charged -= eps }

// TestStepPredictiveKeepsEpsTestOnDeniedReport: when the test fails and the
// follow-up report spend is denied, the epsTest must stay spent. The denial
// itself tells the caller the test failed (a pass would have re-released),
// so refunding would let a user with remaining budget in [epsTest, eps)
// probe distance-to-memo repeatedly at zero accounted cost.
func TestStepPredictiveKeepsEpsTestOnDeniedReport(t *testing.T) {
	cfg := PredictiveConfig{Theta: 0.001, EpsTest: 0.25} // far point: test always fails
	rng := rand.New(rand.NewPCG(8, 8))
	st := State{HasRelease: true, Release: geo.Point{X: 0, Y: 0}}
	// Admits epsTest (0.25) but not the follow-up report epsilon (1).
	b := &cappedBudget{limit: 0.5}
	for i := 0; i < 2; i++ {
		before := b.charged
		_, st2, err := StepPredictive(context.Background(), failingReporter{eps: 1}, b, st, geo.Point{X: 19, Y: 19}, cfg, rng)
		if !errors.Is(err, errDenied) {
			t.Fatalf("probe %d: err = %v, want denial", i, err)
		}
		if st2 != st {
			t.Fatalf("probe %d: state mutated on denial: %+v", i, st2)
		}
		if b.charged <= before {
			t.Fatalf("probe %d ran for free: charged %g -> %g", i, before, b.charged)
		}
	}
	if math.Abs(b.charged-0.5) > 1e-12 {
		t.Fatalf("two probes should exhaust the 0.5 budget in epsTest charges, got %g", b.charged)
	}
	// A third probe is denied at the test spend itself: no noise drawn, so
	// nothing is (or needs to be) kept.
	if _, _, err := StepPredictive(context.Background(), failingReporter{eps: 1}, b, st, geo.Point{X: 19, Y: 19}, cfg, rng); !errors.Is(err, errDenied) {
		t.Fatalf("exhausted probe: err = %v, want denial", err)
	}
	if math.Abs(b.charged-0.5) > 1e-12 {
		t.Fatalf("denied test spend changed the charge: %g", b.charged)
	}
}

// TestTraceCanceledCtx: a canceled ctx reaches the mechanism through every
// trace entry point. TestStepPredictiveRefundsOnMechanismFailure covers
// what a canceled step charges.
func TestTraceCanceledCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := []geo.Point{{X: 5, Y: 5}, {X: 6, Y: 6}}
	if _, err := Independent(ctx, newPL(t, 1, 81), pts); !errors.Is(err, context.Canceled) {
		t.Errorf("Independent: err = %v, want context.Canceled", err)
	}
	cfg := PredictiveConfig{Theta: 4, EpsTest: 0.25}
	if _, err := Predictive(ctx, newPL(t, 1, 82), pts, cfg, rand.New(rand.NewPCG(9, 9))); !errors.Is(err, context.Canceled) {
		t.Errorf("Predictive: err = %v, want context.Canceled", err)
	}
	_, _, err := StepPredictive(ctx, newPL(t, 1, 83), Unmetered{}, State{}, pts[0], cfg, rand.New(rand.NewPCG(9, 9)))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("StepPredictive: err = %v, want context.Canceled", err)
	}
}

func TestEmpiricalAdversaryErrorValidation(t *testing.T) {
	good := AdversaryConfig{Region: geo.NewSquare(20), Granularity: 16, Eps: 1}
	cases := []AdversaryConfig{
		{Region: geo.Rect{}, Granularity: 16, Eps: 1},
		{Region: geo.NewSquare(20), Granularity: 1, Eps: 1},
		{Region: geo.NewSquare(20), Granularity: 16, Eps: 0},
	}
	for i, cfg := range cases {
		if _, err := EmpiricalAdversaryError(cfg, nil, nil); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := EmpiricalAdversaryError(good, make([][]geo.Point, 1), nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := EmpiricalAdversaryError(good, [][]geo.Point{{}}, [][]Step{{}}); err == nil {
		t.Error("zero steps accepted")
	}
}

// TestAdversaryErrorOrdersEps: a weaker mechanism (smaller eps) must be
// harder to attack — the adversary error should clearly decrease as eps
// grows.
func TestAdversaryErrorOrdersEps(t *testing.T) {
	traces, err := Generate(4, genCfg(23))
	if err != nil {
		t.Fatal(err)
	}
	attack := func(eps float64, seed uint64) float64 {
		t.Helper()
		mech := newPL(t, eps, seed)
		pts := make([][]geo.Point, len(traces))
		runs := make([][]Step, len(traces))
		for i, tr := range traces {
			pts[i] = tr.Points
			steps, err := Independent(context.Background(), mech, tr.Points)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = steps
		}
		cfg := AdversaryConfig{Region: geo.NewSquare(20), Granularity: 24, Eps: eps}
		e, err := EmpiricalAdversaryError(cfg, pts, runs)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	weak := attack(0.2, 71) // noisy releases: attacker struggles
	strong := attack(4.0, 72)
	if !(weak > strong*1.5) {
		t.Errorf("adversary error does not order eps: eps=0.2 -> %.3f km, eps=4 -> %.3f km", weak, strong)
	}
	if strong <= 0 || weak > 30 {
		t.Errorf("implausible adversary errors: %g / %g", strong, weak)
	}
}
