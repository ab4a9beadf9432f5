package opt

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"

	"geoind/internal/geo"
	"geoind/internal/grid"
)

// expMechChannel builds a synthetic exponential-mechanism channel
// K[x][z] ∝ e^{-(eps/2) d(x,z)} over a granularity² grid. By the triangle
// inequality the mechanism satisfies eps-GeoInd exactly, so it is a valid
// (and LP-free, hence fast) fixture for sampler and pruning tests at any n.
func expMechChannel(t testing.TB, granularity int, eps float64) *Channel {
	t.Helper()
	g, err := grid.New(geo.Rect{MaxX: 10, MaxY: 10}, granularity)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumCells()
	centers := g.Centers()
	k := make([]float64, n*n)
	for x := 0; x < n; x++ {
		for z := 0; z < n; z++ {
			k[x*n+z] = math.Exp(-eps / 2 * centers[x].Dist(centers[z]))
		}
	}
	ch, err := NewChannel(g, eps, geo.Euclidean, k)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestSearchCumMatchesSortSearch pins the inline binary search to its
// contract, sort.SearchFloat64s clamped onto the last index, on random rows
// and on tie-heavy rows (runs of equal prefix sums, as zero-probability
// cells produce), probing every entry exactly, the midpoints between
// entries, points below the first and beyond the last entry, and NaN.
func TestSearchCumMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37))
	check := func(row []float64, u float64) {
		t.Helper()
		want := sort.SearchFloat64s(row, u)
		if want >= len(row) {
			want = len(row) - 1
		}
		if got := searchCum(row, u); got != want {
			t.Fatalf("searchCum(%v, %v) = %d, want %d", row, u, got, want)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.IntN(40)
		row := make([]float64, n)
		acc := 0.0
		tieHeavy := trial%2 == 1
		for i := range row {
			if !tieHeavy || rng.IntN(3) == 0 {
				acc += rng.Float64()
			}
			row[i] = acc
		}
		for i, v := range row {
			check(row, v)
			check(row, math.Nextafter(v, math.Inf(1)))
			if i > 0 {
				check(row, (row[i-1]+v)/2)
			}
		}
		check(row, -1)
		check(row, 0)
		check(row, row[n-1]*(1+1e-12)+1e-300)
		check(row, math.Inf(1))
		check(row, math.NaN())
		check(row, rng.Float64()*row[n-1])
	}
}

// guidedRows returns cumulative rows of n entries in the shapes the guided
// search must get right: random mass, zero-mass runs (ties), subnormal
// mass, a last entry one ulp above and one below 1, leading zeros, and
// rows it must leave to the binary search (all zeros, a decreasing step).
// guided reports which rows should carry a guide table.
func guidedRows(rng *rand.Rand, n int) (rows [][]float64, guided []bool) {
	prefix := func(w func(i int) float64) []float64 {
		row := make([]float64, n)
		acc := 0.0
		for i := range row {
			acc += w(i)
			row[i] = acc
		}
		return row
	}
	add := func(row []float64, g bool) {
		rows = append(rows, row)
		guided = append(guided, g)
	}
	add(prefix(func(int) float64 { return 1 - rng.Float64() }), true)
	add(prefix(func(i int) float64 {
		if i < n-1 && rng.IntN(3) != 0 {
			return 0
		}
		return 1 - rng.Float64()
	}), true)
	sub := prefix(func(int) float64 { return math.SmallestNonzeroFloat64 * float64(1+rng.IntN(4)) })
	add(sub, !math.IsInf(float64(n)/sub[n-1], 1))
	for _, last := range []float64{math.Nextafter(1, 2), math.Nextafter(1, 0)} {
		row := prefix(func(int) float64 { return 1 / float64(n) })
		for i := range row {
			row[i] = min(row[i], last)
		}
		row[n-1] = last
		add(row, true)
	}
	add(prefix(func(i int) float64 {
		if i < n/2 {
			return 0
		}
		return 1
	}), true)
	add(make([]float64, n), false)
	if n > 1 {
		down := prefix(func(int) float64 { return 1 })
		down[0] = float64(n + 1)
		add(down, false)
	}
	return rows, guided
}

// TestSearchCumGuidedMatchesSearchCum: the guide-table search returns the
// binary search's index for every probe of a draw's range (0, every entry
// and its neighbouring floats, the last entry) on every row shape, and rows
// that cannot carry a guide fall back to the binary search.
func TestSearchCumGuidedMatchesSearchCum(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	for _, n := range []int{1, 2, 36, 256} {
		rows, guided := guidedRows(rng, n)
		for r, row := range rows {
			guide := make([]int32, n)
			s := guideRow(row, guide)
			if (s > 0) != guided[r] {
				t.Fatalf("n=%d row %d: scale %v, want guided=%v", n, r, s, guided[r])
			}
			check := func(u float64) {
				t.Helper()
				if got, want := searchCumGuided(row, guide, s, u), searchCum(row, u); got != want {
					t.Fatalf("n=%d row %d u=%v: guided %d, binary %d", n, r, u, got, want)
				}
			}
			check(0)
			check(row[n-1])
			for _, v := range row {
				check(v)
				check(math.Nextafter(v, math.Inf(1)))
				check(math.Nextafter(v, math.Inf(-1)))
			}
			for range 64 {
				check(rng.Float64() * row[n-1])
			}
		}
	}
}

// TestSampleCumRowBitCompat pins the guided cum sampler (and therefore
// SampleIndex and Sampler(SamplerCum)) to the historical draw stream: one
// rng.Float64() scaled by the final cumulative entry, sort.SearchFloat64s,
// and a clamp of the off-the-end edge case.
func TestSampleCumRowBitCompat(t *testing.T) {
	ch := expMechChannel(t, 3, 1.2)
	n := ch.N()

	historical := func(x int, rng *rand.Rand) int {
		row := ch.cum.rows[x*n : (x+1)*n]
		z := sort.SearchFloat64s(row, rng.Float64()*row[n-1])
		if z >= n {
			z = n - 1
		}
		return z
	}

	rngA := rand.New(rand.NewPCG(11, 13))
	rngB := rand.New(rand.NewPCG(11, 13))
	rngC := rand.New(rand.NewPCG(11, 13))
	cum := ch.Sampler(SamplerCum)
	for i := 0; i < 2000; i++ {
		x := i % n
		want := historical(x, rngA)
		if got := ch.SampleIndex(x, rngB); got != want {
			t.Fatalf("draw %d: SampleIndex %d, historical %d", i, got, want)
		}
		if got := cum.Sample(x, rngC); got != want {
			t.Fatalf("draw %d: Sampler(cum) %d, historical %d", i, got, want)
		}
	}
}

// impliedAliasDist computes the exact distribution an alias table row
// produces: slot i is hit with probability 1/n, accepted with prob[i], and
// redirected to alias[i] otherwise.
func impliedAliasDist(n int, prob []float64, alias []int32) []float64 {
	p := make([]float64, n)
	for i := 0; i < n; i++ {
		p[i] += prob[i] / float64(n)
		p[alias[i]] += (1 - prob[i]) / float64(n)
	}
	return p
}

// TestAliasDistributionExactDense checks the alias table analytically rather
// than statistically: the distribution implied by (prob, alias) must equal
// the channel row to within accumulated float rounding. This is the
// "distribution-exact" claim of the tentpole, with no sampling noise.
func TestAliasDistributionExactDense(t *testing.T) {
	for _, granularity := range []int{3, 5} {
		ch := expMechChannel(t, granularity, 1.0)
		at, ok := ch.Sampler(SamplerAlias).(*aliasTable)
		if !ok {
			t.Fatalf("dense alias sampler is %T", ch.Sampler(SamplerAlias))
		}
		n := ch.N()
		for x := 0; x < n; x++ {
			implied := impliedAliasDist(n, at.prob[x*n:(x+1)*n], at.alias[x*n:(x+1)*n])
			for z := 0; z < n; z++ {
				if d := math.Abs(implied[z] - ch.Prob(x, z)); d > 1e-12*float64(n) {
					t.Fatalf("g=%d row %d col %d: implied %g, exact %g (|Δ|=%g)",
						granularity, x, z, implied[z], ch.Prob(x, z), d)
				}
			}
		}
	}
}

// TestAliasDistributionExactSparse is the compact-channel counterpart: the
// background branch contributes bgMass/n to every column and the kept branch
// runs a row-local alias over the kept values, so the implied column
// probability must reproduce Prob(x, z) exactly.
func TestAliasDistributionExactSparse(t *testing.T) {
	ch := expMechChannel(t, 4, 1.5)
	compact, err := ch.Prune(0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sa, ok := compact.Sampler(SamplerAlias).(*sparseAlias)
	if !ok {
		t.Fatalf("sparse alias sampler is %T", compact.Sampler(SamplerAlias))
	}
	s := compact.sparse
	n := compact.N()
	for x := 0; x < n; x++ {
		implied := make([]float64, n)
		for z := range implied {
			implied[z] = s.bgMass[x] / float64(n)
		}
		lo, hi := int(s.rowStart[x]), int(s.rowStart[x+1])
		if cnt := hi - lo; cnt > 0 {
			local := impliedAliasDist(cnt, sa.prob[lo:hi], sa.alias[lo:hi])
			for j, pj := range local {
				implied[s.idx[lo+j]] += (1 - s.bgMass[x]) * pj
			}
		}
		for z := 0; z < n; z++ {
			if d := math.Abs(implied[z] - compact.Prob(x, z)); d > 1e-12*float64(n) {
				t.Fatalf("row %d col %d: implied %g, exact %g (|Δ|=%g)",
					x, z, implied[z], compact.Prob(x, z), d)
			}
		}
	}
}

// tvDistance returns the total-variation distance between an empirical count
// vector (over draws samples) and an exact distribution.
func tvDistance(counts []int, draws int, exact func(z int) float64) float64 {
	tv := 0.0
	for z, c := range counts {
		tv += math.Abs(float64(c)/float64(draws) - exact(z))
	}
	return tv / 2
}

// sampleTV draws from one row through s and returns the TV distance of the
// empirical distribution against exact.
func sampleTV(s Sampler, x, n, draws int, seed uint64, exact func(z int) float64) float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Sample(x, rng)]++
	}
	return tvDistance(counts, draws, exact)
}

// TestAliasVsCumTVDistance is the end-to-end statistical check: 200k draws
// through the alias sampler stay within TV 0.02 of the exact row — and within
// the same bound of the cum reference stream — for dense and compact channels.
// (The analytic tests above prove exactness of the tables; this one exercises
// the full Sample code path, clamps included.)
func TestAliasVsCumTVDistance(t *testing.T) {
	const draws = 200_000
	const bound = 0.02
	ch := expMechChannel(t, 4, 1.0)
	compact, err := expMechChannel(t, 4, 1.5).Prune(0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Channel{"dense": ch, "compact": compact} {
		n := c.N()
		for _, x := range []int{0, n / 2, n - 1} {
			exact := func(z int) float64 { return c.Prob(x, z) }
			if tv := sampleTV(c.Sampler(SamplerAlias), x, n, draws, uint64(101+x), exact); tv > bound {
				t.Errorf("%s row %d: alias TV %.4f > %.2f", name, x, tv, bound)
			}
			if tv := sampleTV(c.Sampler(SamplerCum), x, n, draws, uint64(211+x), exact); tv > bound {
				t.Errorf("%s row %d: cum TV %.4f > %.2f", name, x, tv, bound)
			}
		}
	}
}

// TestAliasVsCumTVDistancePoints runs the same statistical check on a solved
// PointChannel (dense and pruned) over an irregular candidate set.
func TestAliasVsCumTVDistancePoints(t *testing.T) {
	const draws = 200_000
	const bound = 0.02
	centers := []geo.Point{
		{X: 0, Y: 0}, {X: 1.5, Y: 0.2}, {X: 3, Y: 2.4}, {X: 4.2, Y: 0.7},
		{X: 0.4, Y: 3.1}, {X: 2.2, Y: 4}, {X: 5, Y: 5}, {X: 1, Y: 1.8},
	}
	pw := []float64{5, 1, 3, 1, 2, 4, 1, 2}
	dense, err := BuildPoints(1.2, centers, pw, geo.Euclidean, nil)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := dense.Prune(0.1, pw)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*PointChannel{"dense": dense, "compact": compact} {
		n := c.N()
		for _, x := range []int{0, n - 1} {
			exact := func(z int) float64 { return c.Prob(x, z) }
			if tv := sampleTV(c.Sampler(SamplerAlias), x, n, draws, uint64(307+x), exact); tv > bound {
				t.Errorf("%s row %d: alias TV %.4f > %.2f", name, x, tv, bound)
			}
			if tv := sampleTV(c.Sampler(SamplerCum), x, n, draws, uint64(401+x), exact); tv > bound {
				t.Errorf("%s row %d: cum TV %.4f > %.2f", name, x, tv, bound)
			}
		}
	}
}

// TestAliasSharingConcurrentBuild races the lazy alias-table build: many
// goroutines request Sampler(SamplerAlias) on one channel simultaneously,
// must all receive the identical shared table, and sample correct values from
// it. Run under -race by the Makefile's focused persistence/sharing pass.
func TestAliasSharingConcurrentBuild(t *testing.T) {
	compact, err := expMechChannel(t, 4, 1.5).Prune(0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cname, ch := range map[string]*Channel{
		"dense":   expMechChannel(t, 4, 1.0),
		"compact": compact,
	} {
		const workers = 16
		samplers := make([]Sampler, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := ch.Sampler(SamplerAlias)
				samplers[w] = s
				rng := rand.New(rand.NewPCG(uint64(w), 99))
				n := ch.N()
				for i := 0; i < 5000; i++ {
					if z := s.Sample(i%n, rng); z < 0 || z >= n {
						t.Errorf("%s: sample out of range: %d", cname, z)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for w := 1; w < workers; w++ {
			if samplers[w] != samplers[0] {
				t.Fatalf("%s: goroutine %d received a different alias table", cname, w)
			}
		}
	}
}

// TestStreamSeedMatchesFreshPCG: a pooled Stream re-seeded in place, after
// drawing from other seeds, draws exactly what a fresh generator does.
func TestStreamSeedMatchesFreshPCG(t *testing.T) {
	s := GetStream()
	defer PutStream(s)
	for seq := uint64(0); seq < 4; seq++ {
		got, want := s.Seed(7, seq), rand.New(rand.NewPCG(7, seq))
		for i := 0; i < 5+int(seq); i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seq %d draw %d: stream %d, fresh %d", seq, i, g, w)
			}
		}
	}
}
