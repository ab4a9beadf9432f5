package core

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"geoind/internal/geo"
	"geoind/internal/grid"
	"geoind/internal/laplace"
	"geoind/internal/prior"
)

func region20() geo.Rect { return geo.NewSquare(20) }

func clusteredPoints(n int, seed uint64) []geo.Point {
	rng := rand.New(rand.NewPCG(seed, 1))
	centers := []geo.Point{{X: 5, Y: 5}, {X: 14, Y: 12}, {X: 8, Y: 17}}
	pts := make([]geo.Point, 0, n)
	for i := 0; i < n; i++ {
		c := centers[rng.IntN(len(centers))]
		p := geo.Point{X: c.X + rng.NormFloat64()*1.5, Y: c.Y + rng.NormFloat64()*1.5}
		pts = append(pts, region20().Clamp(p))
	}
	return pts
}

func TestNewValidation(t *testing.T) {
	base := Config{Eps: 0.5, G: 3, Region: region20()}
	cases := []func(Config) Config{
		func(c Config) Config { c.Eps = 0; return c },
		func(c Config) Config { c.Eps = math.Inf(1); return c },
		func(c Config) Config { c.G = 1; return c },
		func(c Config) Config { c.G = MaxFanout + 1; return c },
		func(c Config) Config { c.Region = geo.Rect{}; return c },
		func(c Config) Config { c.Rho = 1.5; return c },
		func(c Config) Config { c.Rho = -0.1; return c },
		func(c Config) Config { c.Metric = geo.Metric(9); return c },
	}
	for i, mod := range cases {
		if _, err := New(mod(base), 1); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := New(base, 1); err != nil {
		t.Fatalf("base config should build: %v", err)
	}
}

func TestAllocationConsistency(t *testing.T) {
	m, err := New(Config{Eps: 0.5, G: 4, Region: region20()}, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Allocation()
	if a.Height() != m.Height() {
		t.Errorf("height mismatch %d vs %d", a.Height(), m.Height())
	}
	if math.Abs(a.Total()-0.5) > 1e-12 {
		t.Errorf("budget total %g != 0.5", a.Total())
	}
	wantLeaf := 1
	for i := 0; i < m.Height(); i++ {
		wantLeaf *= 4
	}
	if m.LeafGrid().Granularity() != wantLeaf {
		t.Errorf("leaf granularity %d want %d", m.LeafGrid().Granularity(), wantLeaf)
	}
}

func TestMaxHeightRespected(t *testing.T) {
	m, err := New(Config{Eps: 50, G: 2, Region: region20(), MaxHeight: 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.Height() != 2 {
		t.Errorf("height %d want 2 (capped)", m.Height())
	}
}

func TestReportDeterministicWithSeed(t *testing.T) {
	mk := func() *Mechanism {
		m, err := New(Config{Eps: 0.5, G: 3, Region: region20(), PriorPoints: clusteredPoints(500, 3)}, 42)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := mk(), mk()
	x := geo.Point{X: 6, Y: 7}
	for i := 0; i < 50; i++ {
		z1, err1 := m1.Report(x)
		z2, err2 := m2.Report(x)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if z1 != z2 {
			t.Fatalf("report %d diverged: %v vs %v", i, z1, z2)
		}
	}
}

func TestReportsAreLeafCenters(t *testing.T) {
	m, err := New(Config{Eps: 0.5, G: 3, Region: region20()}, 9)
	if err != nil {
		t.Fatal(err)
	}
	centers := map[geo.Point]bool{}
	for _, c := range m.LeafGrid().Centers() {
		centers[c] = true
	}
	rng := rand.New(rand.NewPCG(10, 11))
	for i := 0; i < 300; i++ {
		x := geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
		z, err := m.ReportWith(x, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !centers[z] {
			t.Fatalf("report %v is not a leaf center", z)
		}
	}
	// Out-of-region input is clamped, not an error.
	if _, err := m.ReportWith(geo.Point{X: -50, Y: 999}, rng); err != nil {
		t.Fatalf("out-of-region report failed: %v", err)
	}
}

func TestChannelCacheBehaviour(t *testing.T) {
	m, err := New(Config{Eps: 0.5, G: 2, Region: region20()}, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(20, 21))
	for i := 0; i < 200; i++ {
		x := geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
		if _, err := m.ReportWith(x, rng); err != nil {
			t.Fatal(err)
		}
	}
	_, solves := m.Stats()
	maxChannels := 0
	per := 1
	for level := 0; level < m.Height(); level++ {
		maxChannels += per
		per *= 4
	}
	if solves > maxChannels {
		t.Errorf("solves %d exceed channel count bound %d", solves, maxChannels)
	}
	if m.ChannelCount() != solves {
		t.Errorf("cache size %d != solves %d", m.ChannelCount(), solves)
	}
	// Re-running the same workload must not trigger new solves.
	before := solves
	rng = rand.New(rand.NewPCG(20, 21))
	for i := 0; i < 200; i++ {
		x := geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
		if _, err := m.ReportWith(x, rng); err != nil {
			t.Fatal(err)
		}
	}
	if _, after := m.Stats(); after != before {
		t.Errorf("warm cache performed %d extra solves", after-before)
	}
}

func TestPrecompute(t *testing.T) {
	m, err := New(Config{Eps: 0.6, G: 2, Region: region20(), MaxHeight: 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Precompute(); err != nil {
		t.Fatal(err)
	}
	want := 0
	per := 1
	for level := 0; level < m.Height(); level++ {
		want += per
		per *= 4
	}
	if m.ChannelCount() != want {
		t.Errorf("precomputed %d channels want %d", m.ChannelCount(), want)
	}
	_, solvesBefore := m.Stats()
	rng := rand.New(rand.NewPCG(33, 34))
	for i := 0; i < 100; i++ {
		if _, err := m.ReportWith(geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}, rng); err != nil {
			t.Fatal(err)
		}
	}
	if _, solvesAfter := m.Stats(); solvesAfter != solvesBefore {
		t.Errorf("post-precompute queries performed %d LP solves", solvesAfter-solvesBefore)
	}
	m.ClearCache()
	if m.ChannelCount() != 0 {
		t.Error("ClearCache left channels behind")
	}
}

func TestDisableCache(t *testing.T) {
	m, err := New(Config{Eps: 0.5, G: 2, Region: region20(), MaxHeight: 2, DisableCache: true}, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(44, 45))
	for i := 0; i < 5; i++ {
		if _, err := m.ReportWith(geo.Point{X: 3, Y: 3}, rng); err != nil {
			t.Fatal(err)
		}
	}
	_, solves := m.Stats()
	if solves < 5*m.Height() {
		t.Errorf("cache disabled but only %d solves for %d queries of height %d", solves, 5, m.Height())
	}
	if err := m.Precompute(); err == nil {
		t.Error("Precompute should refuse with cache disabled")
	}
}

func TestLevelSubPriorNormalized(t *testing.T) {
	m, err := New(Config{Eps: 0.5, G: 3, Region: region20(), PriorPoints: clusteredPoints(2000, 8)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for level := 0; level < m.Height(); level++ {
		nParents := 1
		if level > 0 {
			nParents = m.hier.LevelGrid(level).NumCells()
		}
		for p := 0; p < nParents; p++ {
			w := m.levelSubPrior(level, p)
			if len(w) != 9 {
				t.Fatalf("level %d parent %d: len %d", level, p, len(w))
			}
			s := 0.0
			for _, v := range w {
				if v < 0 {
					t.Fatalf("negative subprior weight %g", v)
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("level %d parent %d: subprior sums to %g", level, p, s)
			}
		}
	}
}

func TestPriorAdaptation(t *testing.T) {
	// A prior on a finer, divisible grid is aggregated.
	m0, err := New(Config{Eps: 0.5, G: 2, Region: region20(), MaxHeight: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	leafG := m0.LeafGrid().Granularity() // 4
	fine := grid.MustNew(region20(), leafG*3)
	p := prior.Uniform(fine)
	if _, err := New(Config{Eps: 0.5, G: 2, Region: region20(), MaxHeight: 2, Prior: p}, 5); err != nil {
		t.Errorf("divisible finer prior should adapt: %v", err)
	}
	// Incompatible granularity errors.
	odd := prior.Uniform(grid.MustNew(region20(), leafG*3-1))
	if _, err := New(Config{Eps: 0.5, G: 2, Region: region20(), MaxHeight: 2, Prior: odd}, 5); err == nil {
		t.Error("incompatible prior granularity should error")
	}
	// Mismatched bounds error.
	other := prior.Uniform(grid.MustNew(geo.NewSquare(10), leafG))
	if _, err := New(Config{Eps: 0.5, G: 2, Region: region20(), MaxHeight: 2, Prior: other}, 5); err == nil {
		t.Error("mismatched prior bounds should error")
	}
}

func TestExactChannelStochastic(t *testing.T) {
	m, err := New(Config{Eps: 0.4, G: 2, Region: region20(), MaxHeight: 2,
		PriorPoints: clusteredPoints(300, 12)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	k, err := m.ExactChannel()
	if err != nil {
		t.Fatal(err)
	}
	n := m.LeafGrid().NumCells()
	for x := 0; x < n; x++ {
		s := 0.0
		for z := 0; z < n; z++ {
			v := k[x*n+z]
			if v < 0 {
				t.Fatalf("negative exact-channel entry at (%d,%d)", x, z)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("exact channel row %d sums to %g", x, s)
		}
	}
}

// TestExactChannelMatchesSampling cross-checks the analytic end-to-end
// channel against empirical sampling frequencies.
func TestExactChannelMatchesSampling(t *testing.T) {
	m, err := New(Config{Eps: 0.5, G: 2, Region: region20(), MaxHeight: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	k, err := m.ExactChannel()
	if err != nil {
		t.Fatal(err)
	}
	n := m.LeafGrid().NumCells()
	xCell := 5
	x := m.LeafGrid().Center(xCell)
	rng := rand.New(rand.NewPCG(55, 56))
	const trials = 60000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		out, err := m.ReportWith(x, rng)
		if err != nil {
			t.Fatal(err)
		}
		z, ok := m.LeafGrid().CellIndex(out)
		if !ok {
			t.Fatalf("released %v lies outside the leaf grid", out)
		}
		counts[z]++
	}
	for z := 0; z < n; z++ {
		emp := float64(counts[z]) / trials
		if math.Abs(emp-k[xCell*n+z]) > 0.012 {
			t.Errorf("z=%d: empirical %g vs exact %g", z, emp, k[xCell*n+z])
		}
	}
}

// TestPrivacyAudit verifies the composite GeoInd bound on the exact
// end-to-end channel. The per-level distinguishability distance is the
// distance between snapped (level-i) logical locations when both inputs lie
// in the same traversed subdomain, and is bounded by the subdomain diameter
// when only one does; summing eps_i times those distances bounds the
// log-ratio of output probabilities (composability, §2.2).
func TestPrivacyAudit(t *testing.T) {
	m, err := New(Config{Eps: 0.6, G: 2, Region: region20(), MaxHeight: 2,
		PriorPoints: clusteredPoints(400, 17)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	k, err := m.ExactChannel()
	if err != nil {
		t.Fatal(err)
	}
	leaf := m.LeafGrid()
	n := leaf.NumCells()
	a := m.Allocation()
	for x := 0; x < n; x++ {
		for xp := 0; xp < n; xp++ {
			if x == xp {
				continue
			}
			// Composite bound over levels. If the pair snaps to the same
			// level-i cell the level contributes nothing (identical rows on
			// every path). Otherwise, paths where both points share the
			// traversed subdomain contribute eps_i * snapped distance, and
			// paths where the subdomain splits them contribute at most
			// eps_i * subdomain diameter (the uniform-substitution row is an
			// average of rows, each within exp(eps_i*diam) of any other).
			// Level 1's subdomain is the whole root, which contains both.
			bound := 0.0
			pa, pb := leaf.Center(x), leaf.Center(xp)
			for level := 1; level <= m.Height(); level++ {
				lg := m.hier.LevelGrid(level)
				snapped := lg.Snap(pa).Dist(lg.Snap(pb))
				if snapped == 0 {
					continue
				}
				d := snapped
				if level > 1 {
					parentSide := 20.0 / math.Pow(float64(m.cfg.G), float64(level-1))
					d = math.Max(snapped, parentSide*math.Sqrt2)
				}
				bound += a.Eps[level-1] * d
			}
			for z := 0; z < n; z++ {
				pxz, pxpz := k[x*n+z], k[xp*n+z]
				if pxz <= 0 || pxpz <= 0 {
					continue
				}
				if math.Log(pxz)-math.Log(pxpz) > bound+1e-9 {
					t.Fatalf("audit failed: x=%d xp=%d z=%d ratio %g bound %g",
						x, xp, z, math.Log(pxz)-math.Log(pxpz), bound)
				}
			}
		}
	}
}

// TestMSMBeatsPlanarLaplace: the headline utility claim in miniature. On a
// clustered prior at a tight budget MSM's mean Euclidean loss should beat
// raw PL's.
func TestMSMBeatsPlanarLaplace(t *testing.T) {
	pts := clusteredPoints(4000, 23)
	m, err := New(Config{Eps: 0.3, G: 4, Region: region20(), PriorPoints: pts}, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(66, 67))
	pl, err := laplace.New(0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	const nq = 2000
	var msmLoss, plLoss float64
	for i := 0; i < nq; i++ {
		x := pts[rng.IntN(len(pts))]
		z, err := m.ReportWith(x, rng)
		if err != nil {
			t.Fatal(err)
		}
		msmLoss += x.Dist(z)
		plLoss += x.Dist(pl.Sample(x))
	}
	msmLoss /= nq
	plLoss /= nq
	if msmLoss >= plLoss {
		t.Errorf("MSM loss %g not better than PL loss %g at eps=0.3", msmLoss, plLoss)
	}
	t.Logf("mean loss: MSM=%.3f km, PL=%.3f km", msmLoss, plLoss)
}

func TestForceHeight(t *testing.T) {
	for _, h := range []int{1, 2, 3} {
		m, err := New(Config{Eps: 0.5, G: 2, Region: region20(), ForceHeight: h}, 3)
		if err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		if m.Height() != h {
			t.Errorf("ForceHeight=%d gave height %d", h, m.Height())
		}
		if math.Abs(m.Allocation().Total()-0.5) > 1e-12 {
			t.Errorf("h=%d: total %g", h, m.Allocation().Total())
		}
	}
}

func TestCustomBudgets(t *testing.T) {
	m, err := New(Config{Eps: 999, G: 2, Region: region20(),
		CustomBudgets: []float64{0.3, 0.1, 0.05}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Height() != 3 {
		t.Errorf("height %d want 3", m.Height())
	}
	// Eps is overridden by the custom total.
	if math.Abs(m.Epsilon()-0.45) > 1e-12 {
		t.Errorf("epsilon %g want 0.45", m.Epsilon())
	}
	got := m.Allocation().Eps
	want := []float64{0.3, 0.1, 0.05}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("level %d: %g want %g", i+1, got[i], want[i])
		}
	}
	// Invalid custom budgets.
	if _, err := New(Config{Eps: 1, G: 2, Region: region20(),
		CustomBudgets: []float64{0.3, 0}}, 3); err == nil {
		t.Error("zero custom budget should error")
	}
	if _, err := New(Config{Eps: 1, G: 2, Region: region20(),
		CustomBudgets: []float64{0.3, -0.1}}, 3); err == nil {
		t.Error("negative custom budget should error")
	}
}

// TestReportConcurrent exercises the mutex paths under concurrent load.
func TestReportConcurrent(t *testing.T) {
	m, err := New(Config{Eps: 0.5, G: 2, Region: region20()}, 9)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 1))
			for i := 0; i < 50; i++ {
				x := geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
				if _, err := m.Report(x); err != nil {
					errs <- err
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	queries, _ := m.Stats()
	if queries != 400 {
		t.Errorf("queries %d want 400", queries)
	}
}
