package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"geoind/internal/geo"
	"geoind/internal/lp"
)

// PointChannel is an optimal GeoInd mechanism over an arbitrary finite set
// of candidate locations (the "logical locations" of §3.1 need not come
// from a regular grid — the paper's future work considers k-d-tree style
// partitions whose cell centers are irregular).
type PointChannel struct {
	// Centers are the candidate locations; X = Z = Centers.
	Centers []geo.Point
	// Eps is the privacy budget the channel satisfies.
	Eps float64
	// Metric is the utility metric optimized.
	Metric geo.Metric
	// K is the row-major channel matrix with strictly positive entries and
	// unit row sums.
	K []float64
	// ExpectedLoss is the analytic expected loss under the construction
	// prior.
	ExpectedLoss float64
	// Iters is the number of interior-point iterations used.
	Iters int

	cum    *cumSampler // dense: cumulative rows and guide tables (reference sampler)
	sparse *sparseRows // compact: pruned representation (K and cum are nil)
	ref    Sampler     // cached reference sampler

	aliasOnce sync.Once
	alias     Sampler
}

// buildCum builds the dense cumulative rows with their guide tables and
// caches the reference sampler (shared prefix-sum and search code with
// Channel).
func (c *PointChannel) buildCum() {
	c.cum = newCumSampler(c.N(), c.K)
	c.ref = c.cum
}

// initSparse attaches a compact representation and its reference sampler.
func (c *PointChannel) initSparse(s *sparseRows) {
	c.sparse = s
	c.ref = sparseRefSampler{s: s}
}

// BuildPoints solves the OPT linear program over an arbitrary candidate set.
// It is the generalization of Build used by the adaptive index, and shares
// all of Build's post-processing guarantees (cleanup + uniform mixing).
//
// Coincident candidates (zero distance) would force exact row equalities,
// an LP with empty interior that no interior-point method can traverse;
// they are therefore merged before solving (weights summed) and the solved
// channel is expanded back, splitting each merged output column evenly
// among its duplicates — which preserves stochasticity, the GeoInd
// constraints and the expected loss exactly.
func BuildPoints(eps float64, centers []geo.Point, priorWeights []float64, metric geo.Metric, opts *Options) (*PointChannel, error) {
	return BuildPointsCtx(context.Background(), eps, centers, priorWeights, metric, opts)
}

// BuildPointsCtx is BuildPoints under a context; see BuildCtx for the
// cancellation contract.
func BuildPointsCtx(ctx context.Context, eps float64, centers []geo.Point, priorWeights []float64, metric geo.Metric, opts *Options) (*PointChannel, error) {
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("opt: eps must be positive and finite, got %g", eps)
	}
	if !metric.Valid() {
		return nil, fmt.Errorf("opt: unknown metric %v", metric)
	}
	n := len(centers)
	if n == 0 {
		return nil, fmt.Errorf("opt: empty candidate set")
	}
	if len(priorWeights) != n {
		return nil, fmt.Errorf("opt: %d prior weights for %d candidates", len(priorWeights), n)
	}
	pi, err := normalizePrior(priorWeights)
	if err != nil {
		return nil, fmt.Errorf("opt: %w", err)
	}

	// Merge coincident candidates.
	rep := make([]int, n)   // candidate -> reduced index
	var reduced []geo.Point // unique locations
	var redW []float64      // merged weights
	var dupCount []int      // duplicates per reduced index
	index := map[geo.Point]int{}
	for i, c := range centers {
		if j, ok := index[c]; ok {
			rep[i] = j
			redW[j] += pi[i]
			dupCount[j]++
			continue
		}
		j := len(reduced)
		index[c] = j
		rep[i] = j
		reduced = append(reduced, c)
		redW = append(redW, pi[i])
		dupCount = append(dupCount, 1)
	}
	m := len(reduced)

	delta := (opts).mixDelta()
	dropTol := 0.0
	if delta > 0 {
		dropTol = delta / float64(m)
	}

	var kRed []float64
	iters := 0
	if m == 1 {
		kRed = []float64{1}
	} else {
		prob := &lp.GeoIndProblem{N: m, Obj: make([]float64, m*m)}
		for x := 0; x < m; x++ {
			for z := 0; z < m; z++ {
				prob.Obj[x*m+z] = redW[x] * metric.Loss(reduced[x], reduced[z])
			}
		}
		for x := 0; x < m; x++ {
			for xp := 0; xp < m; xp++ {
				if x == xp {
					continue
				}
				coef := math.Exp(-eps * reduced[x].Dist(reduced[xp]))
				if coef <= dropTol {
					continue
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
		kRed = sol.K
		iters = sol.Iters
		cleanup(kRed, m)
		if delta > 0 {
			mixUniform(kRed, m, delta)
		}
	}

	// Expand back to the full candidate set.
	k := make([]float64, n*n)
	for x := 0; x < n; x++ {
		for z := 0; z < n; z++ {
			k[x*n+z] = kRed[rep[x]*m+rep[z]] / float64(dupCount[rep[z]])
		}
	}
	ch := &PointChannel{
		Centers: append([]geo.Point(nil), centers...),
		Eps:     eps, Metric: metric, K: k, Iters: iters,
	}
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

// N returns the number of candidate locations.
func (c *PointChannel) N() int { return len(c.Centers) }

// IsCompact reports whether the channel uses the pruned sparse
// representation (K is nil; use Prob, Row or DenseK for matrix access).
func (c *PointChannel) IsCompact() bool { return c.sparse != nil }

// Prob returns K(x)(z).
func (c *PointChannel) Prob(x, z int) float64 {
	if c.sparse != nil {
		return c.sparse.prob(x, z)
	}
	return c.K[x*c.N()+z]
}

// Row returns row x of the channel matrix. For dense channels this is a
// view into K (do not mutate); compact channels materialize a fresh slice.
func (c *PointChannel) Row(x int) []float64 {
	if c.sparse != nil {
		return c.sparse.appendRow(nil, x)
	}
	n := c.N()
	return c.K[x*n : (x+1)*n]
}

// DenseK returns the full row-major matrix. Dense channels return K itself
// (do not mutate); compact channels materialize a fresh n*n slice.
func (c *PointChannel) DenseK() []float64 {
	if c.sparse != nil {
		return c.sparse.dense()
	}
	return c.K
}

// VerifyMaxExcess re-runs the O(n^3) GeoInd verifier on the channel
// (materializing compact representations); <= 0 means every constraint holds.
func (c *PointChannel) VerifyMaxExcess() float64 {
	return VerifyGeoIndPoints(c.Centers, c.Eps, c.DenseK())
}

// SampleIndex draws an output candidate index for input candidate x with the
// reference sampler (cumulative binary search; the historical draw stream).
func (c *PointChannel) SampleIndex(x int, rng *rand.Rand) int {
	return c.ref.Sample(x, rng)
}

// Sampler returns the channel's sampler of the requested kind; see
// Channel.Sampler for the construction and sharing contract.
func (c *PointChannel) Sampler(kind SamplerKind) Sampler {
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

// VerifyGeoIndPoints exhaustively checks a channel over arbitrary candidate
// locations against Eq. (1); it returns the maximum log-ratio excess
// (<= 0 means the constraint holds everywhere). Coincident candidates are
// checked with distance 0, i.e. their rows must be identical.
func VerifyGeoIndPoints(centers []geo.Point, eps float64, k []float64) float64 {
	n := len(centers)
	logK := make([]float64, len(k))
	for i, v := range k {
		if v <= 0 {
			logK[i] = math.Inf(-1)
		} else {
			logK[i] = math.Log(v)
		}
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
