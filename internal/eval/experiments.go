package eval

import (
	"context"
	"fmt"
	"math"
	"time"

	"geoind/internal/budget"
	"geoind/internal/core"
	"geoind/internal/geo"
	"geoind/internal/grid"
	"geoind/internal/laplace"
	"geoind/internal/opt"
	"geoind/internal/prior"
)

// DefaultEps is the paper's default privacy budget (§6.2).
const DefaultEps = 0.5

// DefaultRho is the paper's default same-cell probability target (§6.1).
const DefaultRho = 0.8

// ---------------------------------------------------------------------------
// Figure 3: effect of granularity on OPT utility and running time.

// Fig3Row is one point of the Figure 3 sweep.
type Fig3Row struct {
	G            int
	UtilityLoss  float64
	BuildSeconds float64
}

// Fig3Result is the Figure 3 series (OPT on Gowalla, eps=0.5, Euclidean).
type Fig3Result struct {
	Rows []Fig3Row
}

// RunFig3 sweeps OPT grid granularity. The paper sweeps g=2..11 with
// Gurobi; pass the range that fits your time budget (each step is one full
// LP solve; cost grows like g^8).
func (c *Context) RunFig3(gs []int) (*Fig3Result, error) {
	res := &Fig3Result{}
	for _, g := range gs {
		ch, dur, err := c.optChannel(c.Gowalla, DefaultEps, g, geo.Euclidean)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig3Row{
			G:            g,
			UtilityLoss:  c.channelUtility(ch, c.Gowalla, geo.Euclidean),
			BuildSeconds: dur.Seconds(),
		})
	}
	return res, nil
}

// Table renders the Figure 3 series.
func (r *Fig3Result) Table() *Table {
	t := &Table{
		Title:   "Figure 3: OPT utility loss and running time vs granularity (Gowalla, eps=0.5)",
		Columns: []string{"g", "utility_loss_km", "solve_time_s"},
		Notes:   []string{"paper shape: utility falls with g, solve time rises sharply (hours beyond g=11 with Gurobi)"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.G), f3(row.UtilityLoss), f3(row.BuildSeconds))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 5: accuracy of the Phi estimate of Pr[x|x].

// Fig5Result holds empirical Pr[x|x] per (g, rho): PrSame[i][j] is the value
// for Gs[i], Rhos[j].
type Fig5Result struct {
	Gs     []int
	Rhos   []float64
	PrSame [][]float64
}

// RunFig5 validates the budget-allocation model: for each granularity g and
// target rho, the budget from Problem 1 is fed to OPT with a uniform global
// prior (as in the paper), and the resulting Pr[x|x] is measured over the
// Gowalla request workload — i.e. weighted by where users actually are. The
// infinite-lattice estimate Phi is exact for interior cells; boundary cells
// retain more self-probability, so the empirical value sits at or above rho
// and approaches it as g grows (the shape of the paper's figure).
func (c *Context) RunFig5(gs []int, rhos []float64) (*Fig5Result, error) {
	res := &Fig5Result{Gs: gs, Rhos: rhos}
	region := c.Gowalla.Region()
	sideL := region.Width()
	for _, g := range gs {
		row := make([]float64, len(rhos))
		gr, err := grid.New(region, g)
		if err != nil {
			return nil, err
		}
		uw := prior.Uniform(gr).Weights()
		dataWeights := prior.FromPoints(gr, c.Gowalla.Points()).Weights()
		for j, rho := range rhos {
			eps, err := budget.MinEpsilon(sideL/float64(g), rho)
			if err != nil {
				return nil, err
			}
			ch, err := opt.Build(eps, gr, uw, geo.Euclidean, nil)
			if err != nil {
				return nil, fmt.Errorf("fig5 g=%d rho=%g: %w", g, rho, err)
			}
			mean := 0.0
			for x := 0; x < ch.N(); x++ {
				mean += dataWeights[x] * ch.ProbSame(x)
			}
			row[j] = mean
		}
		res.PrSame = append(res.PrSame, row)
	}
	return res, nil
}

// Table renders the Figure 5 grid.
func (r *Fig5Result) Table() *Table {
	cols := []string{"g"}
	for _, rho := range r.Rhos {
		cols = append(cols, fmt.Sprintf("rho=%.1f", rho))
	}
	t := &Table{
		Title:   "Figure 5: empirical Pr[x|x] at the Problem-1 budget (uniform prior)",
		Columns: cols,
		Notes:   []string{"paper: within +/-5% of rho for g >= 3 (g=2 excluded)"},
	}
	for i, g := range r.Gs {
		cells := []string{fmt.Sprintf("%d", g)}
		for _, v := range r.PrSame[i] {
			cells = append(cells, f3(v))
		}
		t.AddRow(cells...)
	}
	return t
}

// MaxDeviation returns the largest |Pr[x|x] - rho| over the grid, optionally
// excluding g=2 (as the paper does).
func (r *Fig5Result) MaxDeviation(excludeG2 bool) float64 {
	worst := 0.0
	for i, g := range r.Gs {
		if excludeG2 && g == 2 {
			continue
		}
		for j, rho := range r.Rhos {
			if d := math.Abs(r.PrSame[i][j] - rho); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// ---------------------------------------------------------------------------
// Table 2: MSM vs OPT at matched effective granularity.

// Table2Row compares OPT at effective granularity Eff x Eff against MSM with
// fanout sqrt(Eff) and two levels.
type Table2Row struct {
	Eff         int // effective cells per side (OPT granularity)
	OPTUtility  float64
	MSMUtility  float64
	OPTSolveSec float64
	MSMColdSec  float64 // per-query with empty channel cache
	MSMWarmSec  float64 // per-query with warm cache
	MSMFanout   int
	OPTSkipped  bool // true when the OPT column was not run (too large)
}

// Table2Result reproduces Table 2 (Gowalla, eps=0.5, Euclidean).
type Table2Result struct {
	Rows []Table2Row
}

// RunTable2 compares OPT and MSM. effs lists effective granularities; each
// must be a perfect square (4, 9, 16 in the paper). maxOptEff skips the OPT
// column above that threshold (the paper's 16 entry ran 72h+ without
// finishing under Gurobi; our structured solver completes it in minutes, but
// callers may still want to skip it in quick runs).
func (c *Context) RunTable2(effs []int, maxOptEff int) (*Table2Result, error) {
	res := &Table2Result{}
	for _, eff := range effs {
		fanout := int(math.Round(math.Sqrt(float64(eff))))
		if fanout*fanout != eff {
			return nil, fmt.Errorf("table2: effective granularity %d is not a perfect square", eff)
		}
		row := Table2Row{Eff: eff, MSMFanout: fanout}

		// MSM with two levels at fanout sqrt(eff).
		p := msmParams{eps: DefaultEps, g: fanout, rho: DefaultRho, metric: geo.Euclidean, forceHeight: 2}
		util, m, err := c.msmUtility(c.Gowalla, p)
		if err != nil {
			return nil, err
		}
		row.MSMUtility = util
		cold, warm, err := c.msmQueryTimes(m)
		if err != nil {
			return nil, err
		}
		row.MSMColdSec, row.MSMWarmSec = cold, warm

		if eff <= maxOptEff {
			ch, dur, err := c.optChannel(c.Gowalla, DefaultEps, eff, geo.Euclidean)
			if err != nil {
				return nil, err
			}
			row.OPTUtility = c.channelUtility(ch, c.Gowalla, geo.Euclidean)
			row.OPTSolveSec = dur.Seconds()
		} else {
			row.OPTSkipped = true
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// msmQueryTimes measures cold (empty cache) and warm per-query latency.
func (c *Context) msmQueryTimes(m *core.Mechanism) (cold, warm float64, err error) {
	reqs := c.requests(c.Gowalla, 505)
	rng := c.rng(606)
	const coldTrials = 5
	for i := 0; i < coldTrials && i < len(reqs); i++ {
		m.Store().Clear()
		start := time.Now()
		if _, err = m.ReportWith(reqs[i], rng); err != nil {
			return 0, 0, err
		}
		cold += time.Since(start).Seconds()
	}
	cold /= coldTrials
	if err = m.PrecomputeCtx(context.Background()); err != nil {
		return 0, 0, err
	}
	warmTrials := min(len(reqs), 2000)
	start := time.Now()
	for i := 0; i < warmTrials; i++ {
		if _, err = m.ReportWith(reqs[i], rng); err != nil {
			return 0, 0, err
		}
	}
	warm = time.Since(start).Seconds() / float64(warmTrials)
	return cold, warm, nil
}

// Table renders the Table 2 comparison.
func (r *Table2Result) Table() *Table {
	t := &Table{
		Title: "Table 2: MSM vs OPT at matched effective granularity (Gowalla, eps=0.5)",
		Columns: []string{"granularity", "OPT_util_km", "MSM_util_km",
			"OPT_time_s", "MSM_cold_s", "MSM_warm_s"},
		Notes: []string{
			"MSM uses fanout sqrt(granularity) with two levels, as in the paper",
			"the paper's OPT at granularity 16 did not finish within 72h under Gurobi",
		},
	}
	for _, row := range r.Rows {
		optU, optT := "-", "-"
		if !row.OPTSkipped {
			optU, optT = f3(row.OPTUtility), f3(row.OPTSolveSec)
		}
		t.AddRow(fmt.Sprintf("%d", row.Eff), optU, f3(row.MSMUtility),
			optT, f4(row.MSMColdSec), fmt.Sprintf("%.6f", row.MSMWarmSec))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figures 6/7: utility loss vs eps, MSM against planar Laplace.

// SweepRow is one measured point of an MSM/PL comparison sweep.
type SweepRow struct {
	Dataset string
	G       int
	Eps     float64
	Rho     float64
	MSM     float64
	PL      float64
	Height  int
}

// SweepResult holds the series of Figures 6/7 (vs eps), 8/9 (vs g) or 10/11
// (vs rho), distinguished by Kind.
type SweepResult struct {
	Kind   string // "eps", "granularity", "rho"
	Metric geo.Metric
	Rows   []SweepRow
}

// RunEpsSweep reproduces Figure 6 (Euclidean metric) or Figure 7 (squared
// Euclidean): utility loss of MSM and grid-remapped PL for eps in epsList
// and g in gList, at the default rho, on both datasets.
func (c *Context) RunEpsSweep(metric geo.Metric, epsList []float64, gList []int) (*SweepResult, error) {
	res := &SweepResult{Kind: "eps", Metric: metric}
	for _, ds := range c.Datasets() {
		for _, g := range gList {
			for _, eps := range epsList {
				msmU, m, err := c.msmUtility(ds, msmParams{eps: eps, g: g, rho: DefaultRho, metric: metric})
				if err != nil {
					return nil, err
				}
				plU, err := c.plUtility(ds, eps, g, metric)
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, SweepRow{
					Dataset: ds.Name, G: g, Eps: eps, Rho: DefaultRho,
					MSM: msmU, PL: plU, Height: m.Height(),
				})
			}
		}
	}
	return res, nil
}

// RunGranularitySweep reproduces Figure 8 (Euclidean) or Figure 9 (squared):
// MSM utility loss vs granularity for several rho settings at eps=0.5.
func (c *Context) RunGranularitySweep(metric geo.Metric, gList []int, rhoList []float64) (*SweepResult, error) {
	res := &SweepResult{Kind: "granularity", Metric: metric}
	for _, ds := range c.Datasets() {
		for _, rho := range rhoList {
			for _, g := range gList {
				msmU, m, err := c.msmUtility(ds, msmParams{eps: DefaultEps, g: g, rho: rho, metric: metric})
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, SweepRow{
					Dataset: ds.Name, G: g, Eps: DefaultEps, Rho: rho,
					MSM: msmU, Height: m.Height(),
				})
			}
		}
	}
	return res, nil
}

// RunRhoSweep reproduces Figure 10 (Euclidean) or Figure 11 (squared): MSM
// utility loss vs rho for several granularities at eps=0.5.
func (c *Context) RunRhoSweep(metric geo.Metric, rhoList []float64, gList []int) (*SweepResult, error) {
	res := &SweepResult{Kind: "rho", Metric: metric}
	for _, ds := range c.Datasets() {
		for _, g := range gList {
			for _, rho := range rhoList {
				msmU, m, err := c.msmUtility(ds, msmParams{eps: DefaultEps, g: g, rho: rho, metric: metric})
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, SweepRow{
					Dataset: ds.Name, G: g, Eps: DefaultEps, Rho: rho,
					MSM: msmU, Height: m.Height(),
				})
			}
		}
	}
	return res, nil
}

// Table renders a sweep.
func (r *SweepResult) Table() *Table {
	var title string
	unit := r.Metric.Unit()
	switch r.Kind {
	case "eps":
		title = fmt.Sprintf("Figures 6/7: utility loss (%s) vs eps, MSM vs PL+remap", unit)
	case "granularity":
		title = fmt.Sprintf("Figures 8/9: MSM utility loss (%s) vs granularity", unit)
	default:
		title = fmt.Sprintf("Figures 10/11: MSM utility loss (%s) vs rho", unit)
	}
	t := &Table{Title: title}
	if r.Kind == "eps" {
		t.Columns = []string{"dataset", "g", "eps", "MSM_" + unit, "PL_" + unit, "height"}
		for _, row := range r.Rows {
			t.AddRow(row.Dataset, fmt.Sprintf("%d", row.G), fmt.Sprintf("%.1f", row.Eps),
				f3(row.MSM), f3(row.PL), fmt.Sprintf("%d", row.Height))
		}
		return t
	}
	t.Columns = []string{"dataset", "g", "rho", "MSM_" + unit, "height"}
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, fmt.Sprintf("%d", row.G), fmt.Sprintf("%.1f", row.Rho),
			f3(row.MSM), fmt.Sprintf("%d", row.Height))
	}
	return t
}

// ---------------------------------------------------------------------------
// Section 6.2 timing claims.

// TimingRow is one latency measurement.
type TimingRow struct {
	Mechanism string
	Config    string
	Seconds   float64
}

// TimingResult summarizes per-report latency for all mechanisms.
type TimingResult struct {
	Rows []TimingRow
}

// RunTimings measures per-report latency: PL (~10ms in the paper's setup,
// much faster here), MSM cold and warm, and OPT solve times for context.
func (c *Context) RunTimings() (*TimingResult, error) {
	res := &TimingResult{}
	ds := c.Gowalla
	reqs := c.requests(ds, 707)

	// PL raw.
	pl, err := laplace.New(DefaultEps, c.rng(808))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for _, x := range reqs {
		pl.Sample(x)
	}
	res.Rows = append(res.Rows, TimingRow{"PL", "eps=0.5", time.Since(start).Seconds() / float64(len(reqs))})

	for _, g := range []int{4, 6} {
		m, err := c.buildMSM(ds, msmParams{eps: DefaultEps, g: g, rho: DefaultRho, metric: geo.Euclidean})
		if err != nil {
			return nil, err
		}
		cold, warm, err := c.msmQueryTimes(m)
		if err != nil {
			return nil, err
		}
		cfg := fmt.Sprintf("g=%d,h=%d", g, m.Height())
		res.Rows = append(res.Rows,
			TimingRow{"MSM(cold)", cfg, cold},
			TimingRow{"MSM(warm)", cfg, warm})
	}

	for _, g := range []int{4, 6, 8} {
		_, dur, err := c.optChannel(ds, DefaultEps, g, geo.Euclidean)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, TimingRow{"OPT(solve)", fmt.Sprintf("g=%d", g), dur.Seconds()})
	}
	return res, nil
}

// Table renders the timing summary.
func (r *TimingResult) Table() *Table {
	t := &Table{
		Title:   "Section 6.2: per-report latency and solve times",
		Columns: []string{"mechanism", "config", "seconds"},
		Notes:   []string{"paper: PL ~10ms, MSM 100-200ms typical / <1s worst (client hardware, Gurobi)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Mechanism, row.Config, fmt.Sprintf("%.6f", row.Seconds))
	}
	return t
}
