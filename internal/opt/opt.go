// Package opt implements the Optimal Mechanism (OPT) of Bordenabe et al. as
// described in §3.2 of the paper: given a privacy budget eps, a regular grid
// of candidate locations, an adversarial prior Pi, and a utility metric dQ,
// it solves the linear program of Eq. (3)-(6) to obtain the channel matrix
// K(X)(Z) that minimizes expected utility loss subject to eps-GeoInd.
//
// The LP is solved with the structure-exploiting interior-point method of
// internal/lp. Two exact post-processing steps keep the result safe:
//
//   - Cleanup: tiny negative entries from the numerical solver are clamped
//     and rows are renormalized.
//   - Mixing: the channel is blended with the uniform channel,
//     K' = (1-delta) K + delta U. The uniform channel is 0-GeoInd (perfectly
//     private), and a convex combination of GeoInd mechanisms with e^{eps d}
//     >= 1 satisfies the same constraints, so mixing preserves eps-GeoInd
//     exactly while guaranteeing strictly positive entries. The positive
//     floor delta/n is what justifies dropping constraints for pairs with
//     exp(-eps d(x,x')) < delta/n: those are implied by the floor alone.
//
// VerifyGeoInd provides an independent O(n^3) check of every constraint.
package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"geoind/internal/geo"
	"geoind/internal/grid"
	"geoind/internal/lp"
)

// DefaultMixDelta is the default uniform mixing weight. It is small enough
// to change expected utility loss by a negligible amount (< delta * diameter)
// and large enough to keep all probabilities comfortably above the float64
// noise floor.
const DefaultMixDelta = 1e-9

// Options configures channel construction.
type Options struct {
	// MixDelta is the uniform mixing weight delta; 0 means DefaultMixDelta.
	// Set to a negative value to disable mixing (then no constraints are
	// dropped either; useful for exact comparisons in tests).
	MixDelta float64
	// LP configures the interior-point solver.
	LP *lp.IPMOptions
}

func (o *Options) mixDelta() float64 {
	if o == nil || o.MixDelta == 0 {
		return DefaultMixDelta
	}
	if o.MixDelta < 0 {
		return 0
	}
	return o.MixDelta
}

// Channel is a solved optimal GeoInd mechanism over a grid: a row-stochastic
// matrix whose rows are input (actual) cells and columns output (reported)
// cells.
type Channel struct {
	// Grid is the candidate-location grid; X = Z = its cell centers.
	Grid *grid.Grid
	// Eps is the privacy budget the channel satisfies.
	Eps float64
	// Metric is the utility metric the channel was optimized for.
	Metric geo.Metric
	// K is the row-major channel matrix, length n*n, strictly positive with
	// unit row sums.
	K []float64
	// ExpectedLoss is sum_x prior[x] sum_z K[x][z] dQ(x, z) for the prior
	// used at construction time.
	ExpectedLoss float64
	// Iters is the number of interior-point iterations used.
	Iters int
	// PairFamilies is the number of ordered-pair constraint families in the
	// LP that produced the channel (each family spans all n outputs). For
	// the full formulation this is ~n(n-1); the spanner variant is far
	// smaller.
	PairFamilies int

	cum    *cumSampler // dense: cumulative rows and guide tables (reference sampler)
	sparse *sparseRows // compact: pruned representation (K and cum are nil)
	ref    Sampler     // cached reference sampler (no per-call allocation)

	// localDomain, when non-nil, marks a locally relevant channel: the
	// sorted cell indices the LP was solved over. GeoInd verification is
	// restricted to pairs inside this domain (see BuildLocalCtx).
	localDomain []int32

	aliasOnce sync.Once // guards the lazy, shared alias-table build
	alias     Sampler
}

// Build solves the OPT linear program. priorWeights must have one
// nonnegative entry per grid cell; it is normalized internally.
func Build(eps float64, g *grid.Grid, priorWeights []float64, metric geo.Metric, opts *Options) (*Channel, error) {
	return BuildCtx(context.Background(), eps, g, priorWeights, metric, opts)
}

// BuildCtx is Build under a context: the LP solve polls ctx once per
// interior-point iteration (and per block inside an iteration), so canceling
// ctx aborts a running solve promptly with ctx.Err(). A solve that finishes
// before cancellation is unaffected.
func BuildCtx(ctx context.Context, eps float64, g *grid.Grid, priorWeights []float64, metric geo.Metric, opts *Options) (*Channel, error) {
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("opt: eps must be positive and finite, got %g", eps)
	}
	if !metric.Valid() {
		return nil, fmt.Errorf("opt: unknown metric %v", metric)
	}
	n := g.NumCells()
	if len(priorWeights) != n {
		return nil, fmt.Errorf("opt: %d prior weights for %d cells", len(priorWeights), n)
	}
	total := 0.0
	for i, w := range priorWeights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("opt: invalid prior weight %g at cell %d", w, i)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("opt: prior has zero mass")
	}
	pi := make([]float64, n)
	for i, w := range priorWeights {
		pi[i] = w / total
	}

	centers := g.Centers()
	delta := (opts).mixDelta()
	dropTol := 0.0
	if delta > 0 {
		dropTol = delta / float64(n)
	}

	prob := &lp.GeoIndProblem{N: n, Obj: make([]float64, n*n)}
	for x := 0; x < n; x++ {
		for z := 0; z < n; z++ {
			prob.Obj[x*n+z] = pi[x] * metric.Loss(centers[x], centers[z])
		}
	}
	for x := 0; x < n; x++ {
		for xp := 0; xp < n; xp++ {
			if x == xp {
				continue
			}
			coef := math.Exp(-eps * centers[x].Dist(centers[xp]))
			if coef <= dropTol {
				continue // implied by the post-mix positivity floor
			}
			prob.Pairs = append(prob.Pairs, lp.Pair{X: x, Xp: xp, Coef: coef})
		}
	}

	var lpOpts *lp.IPMOptions
	if opts != nil {
		lpOpts = opts.LP
	}
	sol, err := prob.SolveCtx(ctx, lpOpts)
	if err != nil {
		return nil, fmt.Errorf("opt: %w", err)
	}
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("opt: LP did not converge: %v (gap %.3g)", sol.Status, sol.Gap)
	}

	k := sol.K
	cleanup(k, n)
	if delta > 0 {
		mixUniform(k, n, delta)
	}

	ch := &Channel{Grid: g, Eps: eps, Metric: metric, K: k, Iters: sol.Iters, PairFamilies: len(prob.Pairs)}
	for x := 0; x < n; x++ {
		if pi[x] == 0 {
			continue
		}
		for z := 0; z < n; z++ {
			ch.ExpectedLoss += pi[x] * k[x*n+z] * metric.Loss(centers[x], centers[z])
		}
	}
	ch.buildCum()
	return ch, nil
}

// cleanup clamps negative entries to zero and renormalizes each row.
func cleanup(k []float64, n int) {
	for x := 0; x < n; x++ {
		row := k[x*n : (x+1)*n]
		sum := 0.0
		for i, v := range row {
			if v < 0 {
				row[i] = 0
			} else {
				sum += v
			}
		}
		if sum <= 0 {
			u := 1 / float64(n)
			for i := range row {
				row[i] = u
			}
			continue
		}
		inv := 1 / sum
		for i := range row {
			row[i] *= inv
		}
	}
}

// mixUniform applies K <- (1-delta) K + delta/n.
func mixUniform(k []float64, n int, delta float64) {
	u := delta / float64(n)
	for i := range k {
		k[i] = (1-delta)*k[i] + u
	}
}

// buildCum builds the dense cumulative rows (prefix sums of K) with their
// guide tables and caches the reference sampler over them.
func (c *Channel) buildCum() {
	c.cum = newCumSampler(c.Grid.NumCells(), c.K)
	c.ref = c.cum
}

// prefixSumRows is the single prefix-sum implementation shared by dense
// channels and the snapshot decoder (bit-determinism of float64 addition is
// what lets a loaded channel sample identically to a solved one).
func prefixSumRows(n int, k []float64) []float64 {
	cum := make([]float64, n*n)
	for x := 0; x < n; x++ {
		s := 0.0
		for z := 0; z < n; z++ {
			s += k[x*n+z]
			cum[x*n+z] = s
		}
	}
	return cum
}

// initSparse attaches a compact representation and its reference sampler.
func (c *Channel) initSparse(s *sparseRows) {
	c.sparse = s
	c.ref = sparseRefSampler{s: s}
}

// NewChannel wraps a caller-supplied row-stochastic matrix as a
// sampling-ready channel (rows are renormalized exactly). It exists for
// synthetic channels — closed-form mechanisms, benchmarks, property tests —
// and performs no GeoInd verification: callers claiming eps must check with
// VerifyGeoInd (Prune always re-verifies regardless).
func NewChannel(g *grid.Grid, eps float64, metric geo.Metric, k []float64) (*Channel, error) {
	if g == nil {
		return nil, fmt.Errorf("opt: nil grid")
	}
	n := g.NumCells()
	if len(k) != n*n {
		return nil, fmt.Errorf("opt: matrix has %d entries, want %d", len(k), n*n)
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("opt: eps must be positive and finite, got %g", eps)
	}
	if !metric.Valid() {
		return nil, fmt.Errorf("opt: unknown metric %v", metric)
	}
	kc := append([]float64(nil), k...)
	for x := 0; x < n; x++ {
		row := kc[x*n : (x+1)*n]
		sum := 0.0
		for _, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("opt: matrix entry %g out of range", v)
			}
			sum += v
		}
		if sum <= 0 {
			return nil, fmt.Errorf("opt: matrix row %d has zero mass", x)
		}
		inv := 1 / sum
		for i := range row {
			row[i] *= inv
		}
	}
	ch := &Channel{Grid: g, Eps: eps, Metric: metric, K: kc}
	ch.buildCum()
	return ch, nil
}

// N returns the number of candidate locations.
func (c *Channel) N() int { return c.Grid.NumCells() }

// IsCompact reports whether the channel uses the pruned sparse
// representation (K is nil; use Prob, Row or DenseK for matrix access).
func (c *Channel) IsCompact() bool { return c.sparse != nil }

// Prob returns K(x)(z), the probability of reporting cell z from cell x.
func (c *Channel) Prob(x, z int) float64 {
	if c.sparse != nil {
		return c.sparse.prob(x, z)
	}
	return c.K[x*c.N()+z]
}

// Row returns row x of the channel matrix. For dense channels this is a
// view into K (do not mutate); compact channels materialize a fresh slice.
func (c *Channel) Row(x int) []float64 {
	if c.sparse != nil {
		return c.sparse.appendRow(nil, x)
	}
	n := c.N()
	return c.K[x*n : (x+1)*n]
}

// DenseK returns the full row-major matrix. Dense channels return K itself
// (do not mutate); compact channels materialize a fresh n*n slice.
func (c *Channel) DenseK() []float64 {
	if c.sparse != nil {
		return c.sparse.dense()
	}
	return c.K
}

// VerifyMaxExcess re-runs the O(n^3) GeoInd verifier on the channel
// (materializing compact representations) and returns the maximum log-ratio
// excess; <= 0 means every constraint holds. For locally relevant channels
// the verifier is restricted to the reduced domain — that restriction is
// the variant's documented guarantee, full-domain constraints between two
// snapped inputs with different representatives are intentionally outside
// it.
func (c *Channel) VerifyMaxExcess() float64 {
	if c.localDomain != nil {
		return verifyLocalSparse(c.Grid, c.Eps, c.sparse, c.localDomain)
	}
	return VerifyGeoInd(c.Grid, c.Eps, c.DenseK())
}

// ProbSame returns Pr[x|x] = K(x)(x), the probability that the reported cell
// equals the actual cell; this is the quantity the budget-allocation model
// of §5 estimates as Phi(x).
func (c *Channel) ProbSame(x int) float64 { return c.Prob(x, x) }

// SampleIndex draws an output cell index for input cell x with the reference
// sampler (cumulative binary search; the historical bit-exact draw stream).
func (c *Channel) SampleIndex(x int, rng *rand.Rand) int {
	return c.ref.Sample(x, rng)
}

// Sampler returns the channel's sampler of the requested kind. The reference
// (cum) sampler is built with the channel; the alias table is built lazily on
// first request, exactly once, and shared by every caller — the returned
// values are immutable and safe for concurrent use.
func (c *Channel) Sampler(kind SamplerKind) Sampler {
	if kind != SamplerAlias {
		return c.ref
	}
	c.aliasOnce.Do(func() {
		if c.sparse != nil {
			c.alias = newSparseAlias(c.sparse)
		} else {
			c.alias = newAliasTable(c.N(), c.K)
		}
	})
	return c.alias
}

// Sample snaps the actual location to its enclosing cell (clamping into the
// grid if needed), draws an output cell from the channel, and returns its
// center: a full OPT invocation for one location report.
func (c *Channel) Sample(x geo.Point, rng *rand.Rand) geo.Point {
	xi := c.Grid.ClampIndex(x)
	return c.Grid.Center(c.SampleIndex(xi, rng))
}

// SampleVia is Sample drawing through an explicit Sampler (obtained from
// Sampler(kind)); with the reference sampler it is identical to Sample.
func (c *Channel) SampleVia(s Sampler, x geo.Point, rng *rand.Rand) geo.Point {
	xi := c.Grid.ClampIndex(x)
	return c.Grid.Center(s.Sample(xi, rng))
}

// SampleBatch runs Sample for every point in xs sequentially against one
// RNG and returns the reports in input order. The draws are exactly those a
// Sample loop would make, so batching never changes output — it only saves
// the per-call overhead of the callers that loop over large workloads.
func (c *Channel) SampleBatch(xs []geo.Point, rng *rand.Rand) []geo.Point {
	out := make([]geo.Point, len(xs))
	for i, x := range xs {
		out[i] = c.Sample(x, rng)
	}
	return out
}

// VerifyGeoInd exhaustively checks the channel against the GeoInd definition
// (Eq. 1) for all ordered pairs of cells and all outputs. It returns the
// maximum violation, measured as ln K(x)(z) - ln K(x')(z) - eps*d(x, x');
// nonpositive values mean the constraint holds. The check is O(n^3).
func VerifyGeoInd(g *grid.Grid, eps float64, k []float64) float64 {
	n := g.NumCells()
	centers := g.Centers()
	logK := make([]float64, len(k))
	for i, v := range k {
		logK[i] = math.Log(v)
	}
	maxExcess := math.Inf(-1)
	for x := 0; x < n; x++ {
		for xp := 0; xp < n; xp++ {
			if x == xp {
				continue
			}
			bound := eps * centers[x].Dist(centers[xp])
			for z := 0; z < n; z++ {
				if ex := logK[x*n+z] - logK[xp*n+z] - bound; ex > maxExcess {
					maxExcess = ex
				}
			}
		}
	}
	return maxExcess
}

// RowSumError returns the maximum deviation of any row sum from 1.
func RowSumError(n int, k []float64) float64 {
	worst := 0.0
	for x := 0; x < n; x++ {
		s := 0.0
		for z := 0; z < n; z++ {
			s += k[x*n+z]
		}
		if d := math.Abs(s - 1); d > worst {
			worst = d
		}
	}
	return worst
}
