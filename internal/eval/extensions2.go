package eval

import (
	"fmt"
	"math"
	"time"

	"geoind/internal/adaptive"
	"geoind/internal/dataset"
	"geoind/internal/geo"
	"geoind/internal/grid"
	"geoind/internal/opt"
	"geoind/internal/prior"
)

// ---------------------------------------------------------------------------
// Extension 3: adaptive (k-d style) index vs uniform grid — the paper's §8
// future work ("more complex index structures which can adjust better to
// skewed distributions of priors").

// AdaptiveRow compares grid MSM, the k-d adaptive MSM and the quadtree MSM
// at one budget.
type AdaptiveRow struct {
	Dataset      string
	Eps          float64
	GridLoss     float64
	AdaptiveLoss float64
	QuadLoss     float64
	GridHeight   int
	MeanLeafSide float64 // adaptive: prior-weighted mean leaf side (km)
	QuadDepth    int     // quadtree: deepest level actually built
}

// AdaptiveResult is the adaptive-vs-grid comparison.
type AdaptiveResult struct {
	Rows []AdaptiveRow
}

// RunAdaptiveComparison measures the uniform-grid MSM against the two
// adaptive index variants (mass-balanced k-d tree; density-driven quadtree)
// at equal budget and rho on both datasets.
func (c *Context) RunAdaptiveComparison(epsList []float64, fanout int) (*AdaptiveResult, error) {
	res := &AdaptiveResult{}
	for _, ds := range c.Datasets() {
		for _, eps := range epsList {
			gridLoss, m, err := c.msmUtility(ds, msmParams{eps: eps, g: fanout, rho: DefaultRho, metric: geo.Euclidean})
			if err != nil {
				return nil, err
			}
			am, err := adaptive.New(adaptive.Config{
				Eps: eps, Region: ds.Region(), Fanout: fanout,
				Rho: DefaultRho, Metric: geo.Euclidean, PriorPoints: ds.Points(),
			}, c.Seed)
			if err != nil {
				return nil, err
			}
			qm, err := adaptive.NewQuad(adaptive.QuadConfig{
				Eps: eps, Region: ds.Region(), Rho: DefaultRho,
				Metric: geo.Euclidean, PriorPoints: ds.Points(),
			}, c.Seed)
			if err != nil {
				return nil, err
			}
			reqs := c.requests(ds, 101)
			rng := c.rng(202)
			var aLoss, qLoss float64
			for _, x := range reqs {
				z, err := am.ReportWith(x, rng)
				if err != nil {
					return nil, err
				}
				aLoss += x.Dist(z)
				zq, err := qm.ReportWith(x, rng)
				if err != nil {
					return nil, err
				}
				qLoss += x.Dist(zq)
			}
			aLoss /= float64(len(reqs))
			qLoss /= float64(len(reqs))
			res.Rows = append(res.Rows, AdaptiveRow{
				Dataset: ds.Name, Eps: eps,
				GridLoss: gridLoss, AdaptiveLoss: aLoss, QuadLoss: qLoss,
				GridHeight: m.Height(), MeanLeafSide: am.MeanLeafSide(),
				QuadDepth: qm.Tree().MaxDepthUsed(),
			})
		}
	}
	return res, nil
}

// Table renders the adaptive comparison.
func (r *AdaptiveResult) Table() *Table {
	t := &Table{
		Title: "Extension: uniform-grid MSM vs adaptive (k-d) and quadtree MSM (Euclidean)",
		Columns: []string{"dataset", "eps", "grid_MSM_km", "kd_MSM_km", "quad_MSM_km",
			"grid_height", "kd_leaf_km", "quad_depth"},
		Notes: []string{"paper §8 future work: index structures that adjust to skewed priors (k-d trees, quadtrees)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, fmt.Sprintf("%.1f", row.Eps), f3(row.GridLoss),
			f3(row.AdaptiveLoss), f3(row.QuadLoss),
			fmt.Sprintf("%d", row.GridHeight), f3(row.MeanLeafSide), fmt.Sprintf("%d", row.QuadDepth))
	}
	return t
}

// ---------------------------------------------------------------------------
// Extension 4: spanner-approximated OPT — the constraint-reduction technique
// of Bordenabe et al. [2] as an ablation of the full LP.

// SpannerRow is one spanner configuration measurement.
type SpannerRow struct {
	Variant      string
	Stretch      float64
	PairFamilies int
	SolveSeconds float64
	ExpectedLoss float64
	GeoIndExcess float64 // max violation of the FULL constraint set (<=0 ok)
}

// SpannerResult is the spanner ablation.
type SpannerResult struct {
	G    int
	Eps  float64
	Rows []SpannerRow
}

// RunSpannerAblation compares the full OPT LP against spanner-reduced
// variants on the Gowalla prior at granularity g. Exact and reduced channels
// both go through the shared channel store — reduced ones keyed by their
// stretch-factor variant — so with a Context.CacheDir a repeated run reloads
// every variant from its snapshot instead of re-solving (SolveSeconds then
// measures the load).
func (c *Context) RunSpannerAblation(g int, eps float64, stretches []float64) (*SpannerResult, error) {
	res := &SpannerResult{G: g, Eps: eps}
	gr, err := grid.New(c.Gowalla.Region(), g)
	if err != nil {
		return nil, err
	}
	pw := prior.FromPoints(gr, c.Gowalla.Points()).Weights()

	start := time.Now()
	full, err := c.storedChannel(
		optKey(c.Gowalla.Name, c.Gowalla.Region(), pw, eps, g, geo.Euclidean, 0),
		func() (*opt.Channel, error) { return opt.Build(eps, gr, pw, geo.Euclidean, nil) })
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, SpannerRow{
		Variant: "full LP", Stretch: 1,
		PairFamilies: full.PairFamilies,
		SolveSeconds: time.Since(start).Seconds(),
		ExpectedLoss: full.ExpectedLoss,
		GeoIndExcess: opt.VerifyGeoInd(gr, eps, full.K),
	})
	for _, st := range stretches {
		st := st
		start = time.Now()
		ch, err := c.storedChannel(
			optKey(c.Gowalla.Name, c.Gowalla.Region(), pw, eps, g, geo.Euclidean, math.Float64bits(st)),
			func() (*opt.Channel, error) { return opt.BuildSpanner(eps, gr, pw, geo.Euclidean, st, nil) })
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, SpannerRow{
			Variant: fmt.Sprintf("spanner %.2f", st), Stretch: st,
			PairFamilies: ch.PairFamilies,
			SolveSeconds: time.Since(start).Seconds(),
			ExpectedLoss: ch.ExpectedLoss,
			GeoIndExcess: opt.VerifyGeoInd(gr, eps, ch.K),
		})
	}
	return res, nil
}

// Table renders the spanner ablation.
func (r *SpannerResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Extension: spanner-reduced OPT (Gowalla, g=%d, eps=%.1f)", r.G, r.Eps),
		Columns: []string{"variant", "pair_families", "solve_s", "expected_loss_km", "geoind_excess"},
		Notes:   []string{"all variants must satisfy the FULL GeoInd constraint set (excess <= 0)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Variant, fmt.Sprintf("%d", row.PairFamilies), f3(row.SolveSeconds),
			f4(row.ExpectedLoss), fmt.Sprintf("%.1e", row.GeoIndExcess))
	}
	return t
}

// ---------------------------------------------------------------------------
// Extension 5: privacy-utility plane against a Bayesian adversary.

// AdversaryRow is one (mechanism, eps) point of the privacy-utility plane.
type AdversaryRow struct {
	Mechanism string
	Eps       float64
	// Utility is the expected loss of the channel (lower = better service).
	Utility float64
	// AdvError is the optimal Bayesian adversary's expected inference error
	// (higher = better privacy).
	AdvError float64
}

// AdversaryResult is the adversary analysis.
type AdversaryResult struct {
	G    int
	Rows []AdversaryRow
}

// RunAdversary computes the privacy-utility plane at granularity g (cells
// per side) for PL+remap, OPT, OPT+remap and the exact MSM channel (fanout
// sqrt(g), two levels), on the Gowalla prior.
func (c *Context) RunAdversary(g int, epsList []float64) (*AdversaryResult, error) {
	res := &AdversaryResult{G: g}
	ds := c.Gowalla
	gr, err := grid.New(ds.Region(), g)
	if err != nil {
		return nil, err
	}
	pw := prior.FromPoints(gr, ds.Points()).Weights()

	add := func(name string, eps float64, k []float64) error {
		util, err := opt.ExpectedLossOf(gr, k, pw, geo.Euclidean)
		if err != nil {
			return err
		}
		adv, err := opt.AdversaryError(gr, k, pw, geo.Euclidean)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, AdversaryRow{Mechanism: name, Eps: eps, Utility: util, AdvError: adv})
		return nil
	}

	fanout := intSqrt(g)
	for _, eps := range epsList {
		pl, err := opt.PLChannel(eps, gr, 3)
		if err != nil {
			return nil, err
		}
		if err := add("PL+remap", eps, pl.K); err != nil {
			return nil, err
		}
		och, err := c.optChannelCached(ds, eps, g)
		if err != nil {
			return nil, err
		}
		if err := add("OPT", eps, och.K); err != nil {
			return nil, err
		}
		re, err := opt.Remap(och, pw, geo.Euclidean)
		if err != nil {
			return nil, err
		}
		if err := add("OPT+remap", eps, re.K); err != nil {
			return nil, err
		}
		if fanout*fanout == g {
			m, err := c.buildMSM(ds, msmParams{eps: eps, g: fanout, rho: DefaultRho,
				metric: geo.Euclidean, forceHeight: 2})
			if err != nil {
				return nil, err
			}
			k, err := m.ExactChannel()
			if err != nil {
				return nil, err
			}
			if err := add("MSM(h=2)", eps, k); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// optChannelCached builds (without timing) an OPT channel.
func (c *Context) optChannelCached(ds *dataset.Dataset, eps float64, g int) (*opt.Channel, error) {
	ch, _, err := c.optChannel(ds, eps, g, geo.Euclidean)
	return ch, err
}

func intSqrt(n int) int {
	for i := 1; i*i <= n; i++ {
		if i*i == n {
			return i
		}
	}
	return 0
}

// Table renders the adversary analysis.
func (r *AdversaryResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Extension: Bayesian-adversary privacy vs utility (Gowalla, %dx%d cells)", r.G, r.G),
		Columns: []string{"mechanism", "eps", "utility_loss_km", "adversary_error_km"},
		Notes: []string{
			"utility: expected loss (lower better for user); adversary error: optimal inference attack's expected error (higher better for user)",
			"OPT+remap shows post-processing restoring utility without changing the adversary's view beyond the remap",
		},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Mechanism, fmt.Sprintf("%.1f", row.Eps), f3(row.Utility), f3(row.AdvError))
	}
	return t
}
