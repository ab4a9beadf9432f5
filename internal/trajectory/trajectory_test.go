package trajectory

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"geoind/internal/geo"
	"geoind/internal/laplace"
)

// plReporter adapts the planar Laplace mechanism for trace tests.
type plReporter struct{ m *laplace.Mechanism }

func (p plReporter) ReportCtx(ctx context.Context, x geo.Point) (geo.Point, error) {
	if err := ctx.Err(); err != nil {
		return geo.Point{}, err
	}
	return p.m.Sample(x), nil
}

func (p plReporter) Epsilon() float64 { return p.m.Epsilon() }

func newPL(t *testing.T, eps float64, seed uint64) Reporter {
	t.Helper()
	m, err := laplace.New(eps, rand.New(rand.NewPCG(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return plReporter{m}
}

func genCfg(seed uint64) GenConfig {
	return GenConfig{
		Region:     geo.NewSquare(20),
		Anchors:    []geo.Point{{X: 5, Y: 5}, {X: 15, Y: 15}, {X: 10, Y: 3}},
		Steps:      200,
		StayProb:   0.85,
		LocalSigma: 0.05,
		JumpProb:   0.05,
		WalkSigma:  0.5,
		Seed:       seed,
	}
}

func TestGenerateValidation(t *testing.T) {
	good := genCfg(1)
	mods := []func(*GenConfig){
		func(c *GenConfig) { c.Region = geo.Rect{} },
		func(c *GenConfig) { c.Anchors = nil },
		func(c *GenConfig) { c.Steps = 0 },
		func(c *GenConfig) { c.StayProb = 0.9; c.JumpProb = 0.5 },
		func(c *GenConfig) { c.StayProb = -0.1 },
		func(c *GenConfig) { c.LocalSigma = 0 },
		func(c *GenConfig) { c.WalkSigma = 0 },
	}
	for i, mod := range mods {
		cfg := good
		mod(&cfg)
		if _, err := Generate(1, cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := Generate(0, good); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestGenerateShape(t *testing.T) {
	traces, err := Generate(5, genCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 5 {
		t.Fatalf("traces %d", len(traces))
	}
	region := geo.NewSquare(20)
	for _, tr := range traces {
		if len(tr.Points) != 200 {
			t.Fatalf("user %d has %d points", tr.User, len(tr.Points))
		}
		for _, p := range tr.Points {
			if !region.Contains(p) {
				t.Fatalf("point %v outside region", p)
			}
		}
	}
	// Determinism.
	again, err := Generate(5, genCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	for u := range traces {
		for i := range traces[u].Points {
			if traces[u].Points[i] != again[u].Points[i] {
				t.Fatal("generation not deterministic")
			}
		}
	}
	// Temporal correlation: consecutive step distances are mostly tiny.
	small := 0
	total := 0
	for _, tr := range traces {
		for i := 1; i < len(tr.Points); i++ {
			if tr.Points[i-1].Dist(tr.Points[i]) < 0.3 {
				small++
			}
			total++
		}
	}
	if frac := float64(small) / float64(total); frac < 0.7 {
		t.Errorf("only %.2f of steps are dwell-scale; traces not correlated", frac)
	}
}

func TestIndependentAccounting(t *testing.T) {
	mech := newPL(t, 0.2, 3)
	traces, err := Generate(1, genCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	steps, err := Independent(context.Background(), mech, traces[0].Points)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(traces[0].Points, steps)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Steps != 200 || sum.Fresh != 200 {
		t.Errorf("steps=%d fresh=%d", sum.Steps, sum.Fresh)
	}
	if math.Abs(sum.TotalSpent-200*0.2) > 1e-9 {
		t.Errorf("spent %g want 40", sum.TotalSpent)
	}
	if sum.MeanLoss <= 0 {
		t.Errorf("mean loss %g", sum.MeanLoss)
	}
}

func TestPredictiveValidation(t *testing.T) {
	mech := newPL(t, 0.2, 3)
	rng := rand.New(rand.NewPCG(1, 1))
	pts := []geo.Point{{X: 1, Y: 1}}
	if _, err := Predictive(context.Background(), mech, pts, PredictiveConfig{Theta: 0, EpsTest: 0.01}, rng); err == nil {
		t.Error("theta=0 should fail")
	}
	if _, err := Predictive(context.Background(), mech, pts, PredictiveConfig{Theta: 1, EpsTest: 0}, rng); err == nil {
		t.Error("epsTest=0 should fail")
	}
	if _, err := Predictive(context.Background(), mech, pts, PredictiveConfig{Theta: 1, EpsTest: 0.01}, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

// TestPredictiveAccounting: each step costs either epsTest (prediction) or
// epsTest+epsReport (fresh, after the first).
func TestPredictiveAccounting(t *testing.T) {
	mech := newPL(t, 0.2, 5)
	traces, err := Generate(1, genCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PredictiveConfig{Theta: 1.0, EpsTest: 0.02}
	steps, err := Predictive(context.Background(), mech, traces[0].Points, cfg, rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range steps {
		switch {
		case i == 0:
			if !st.Fresh || math.Abs(st.Spent-0.2) > 1e-12 {
				t.Fatalf("first step %+v", st)
			}
		case st.Fresh:
			if math.Abs(st.Spent-0.22) > 1e-12 {
				t.Fatalf("fresh step %d spent %g want 0.22", i, st.Spent)
			}
		default:
			if math.Abs(st.Spent-0.02) > 1e-12 {
				t.Fatalf("predicted step %d spent %g want 0.02", i, st.Spent)
			}
		}
	}
}

// TestPredictiveSavesBudgetOnDwellingUser: on strongly correlated traces the
// predictive mechanism spends far less than independent reporting at
// comparable utility.
func TestPredictiveSavesBudgetOnDwellingUser(t *testing.T) {
	cfg := genCfg(13)
	cfg.StayProb = 0.95
	cfg.JumpProb = 0.02
	traces, err := Generate(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Self-consistent parameters: theta must sit a few test-noise scales
	// (1/epsTest = 2 km) above the typical distance between the true
	// location and the stale release (~1 km of PL noise at eps=2), or
	// spurious test failures erase the savings.
	pcfg := PredictiveConfig{Theta: 4.0, EpsTest: 0.5}
	for _, tr := range traces {
		ind, err := Independent(context.Background(), newPL(t, 2.0, 21), tr.Points)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := Predictive(context.Background(), newPL(t, 2.0, 22), tr.Points, pcfg, rand.New(rand.NewPCG(3, 3)))
		if err != nil {
			t.Fatal(err)
		}
		indSum, _ := Summarize(tr.Points, ind)
		predSum, _ := Summarize(tr.Points, pred)
		if predSum.TotalSpent > indSum.TotalSpent/2 {
			t.Errorf("user %d: predictive spent %.2f, not far below independent %.2f",
				tr.User, predSum.TotalSpent, indSum.TotalSpent)
		}
		// Utility should not collapse: re-released predictions are near the
		// dwell anchor, so the mean loss stays within a small factor of the
		// independent mechanism's.
		if predSum.MeanLoss > 3*indSum.MeanLoss+1 {
			t.Errorf("user %d: predictive loss %.2f vs independent %.2f",
				tr.User, predSum.MeanLoss, indSum.MeanLoss)
		}
	}
}

// TestPredictiveDetectsMovement: a teleporting user forces fresh reports.
func TestPredictiveDetectsMovement(t *testing.T) {
	// Alternate between two far-apart anchors every step.
	pts := make([]geo.Point, 40)
	for i := range pts {
		if i%2 == 0 {
			pts[i] = geo.Point{X: 2, Y: 2}
		} else {
			pts[i] = geo.Point{X: 18, Y: 18}
		}
	}
	// EpsTest=0.5 keeps the test noise scale at 2 km, far below the 22 km
	// jumps, so essentially every test must fail. (At tiny epsTest the test
	// becomes noisy and erroneous passes are expected — that is the
	// privacy/accuracy trade-off of the test itself.)
	steps, err := Predictive(context.Background(), newPL(t, 0.5, 31), pts, PredictiveConfig{Theta: 1.0, EpsTest: 0.5},
		rand.New(rand.NewPCG(4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	fresh := 0
	for _, st := range steps {
		if st.Fresh {
			fresh++
		}
	}
	if fresh < 38 {
		t.Errorf("only %d/40 fresh reports for a teleporting user", fresh)
	}
}

func TestSummarizeValidation(t *testing.T) {
	if _, err := Summarize(make([]geo.Point, 3), make([]Step, 2)); err == nil {
		t.Error("length mismatch should error")
	}
	s, err := Summarize(nil, nil)
	if err != nil || s.Steps != 0 {
		t.Errorf("empty summary: %+v err=%v", s, err)
	}
}

// TestLaplace1D: the noise has the right scale and is symmetric.
func TestLaplace1D(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	const n = 200000
	scale := 2.0
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		v := laplace1D(rng, scale)
		sum += v
		sumAbs += math.Abs(v)
	}
	if math.Abs(sum/n) > 0.05 {
		t.Errorf("mean %g want ~0", sum/n)
	}
	// E|X| = scale for Laplace.
	if math.Abs(sumAbs/n-scale) > 0.05 {
		t.Errorf("mean |X| = %g want %g", sumAbs/n, scale)
	}
}
