package adaptive

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"geoind/internal/geo"
	"geoind/internal/grid"
	"geoind/internal/prior"
)

func clusteredPoints(n int, seed uint64) []geo.Point {
	rng := rand.New(rand.NewPCG(seed, 1))
	centers := []geo.Point{{X: 5, Y: 5}, {X: 14, Y: 12}, {X: 8, Y: 17}}
	pts := make([]geo.Point, 0, n)
	region := geo.NewSquare(20)
	for i := 0; i < n; i++ {
		c := centers[rng.IntN(len(centers))]
		pts = append(pts, region.Clamp(geo.Point{
			X: c.X + rng.NormFloat64()*1.2,
			Y: c.Y + rng.NormFloat64()*1.2,
		}))
	}
	return pts
}

func testPrior(t *testing.T, g int, pts []geo.Point) *prior.Prior {
	t.Helper()
	gr, err := grid.New(geo.NewSquare(20), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		return prior.Uniform(gr)
	}
	return prior.FromPoints(gr, pts)
}

func TestBuildTreeValidation(t *testing.T) {
	p := testPrior(t, 64, nil)
	if _, err := BuildTree(nil, 0.5, 2, 2, 0.8); err == nil {
		t.Error("nil prior should error")
	}
	if _, err := BuildTree(p, 0, 2, 2, 0.8); err == nil {
		t.Error("eps=0 should error")
	}
	if _, err := BuildTree(p, 0.5, 1, 2, 0.8); err == nil {
		t.Error("fanout 1 should error")
	}
	if _, err := BuildTree(p, 0.5, 2, 0, 0.8); err == nil {
		t.Error("height 0 should error")
	}
	if _, err := BuildTree(p, 0.5, 2, 2, 1.5); err == nil {
		t.Error("rho out of range should error")
	}
	if _, err := BuildTree(p, 0.5, 16, 3, 0.8); err == nil {
		t.Error("16^3 > 64 prior cells should error")
	}
}

// TestTreePartitionInvariants: children tile the parent exactly and node
// masses equal the sum of child masses.
func TestTreePartitionInvariants(t *testing.T) {
	pts := clusteredPoints(5000, 3)
	p := testPrior(t, 128, pts)
	tree, err := BuildTree(p, 1.0, 3, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Children == nil {
			return
		}
		if len(n.Children) != 9 {
			t.Fatalf("node %d has %d children", n.ID(), len(n.Children))
		}
		area, mass := 0.0, 0.0
		for _, c := range n.Children {
			area += c.Rect.Width() * c.Rect.Height()
			mass += c.Mass
			if c.Rect.MinX < n.Rect.MinX-1e-9 || c.Rect.MaxX > n.Rect.MaxX+1e-9 ||
				c.Rect.MinY < n.Rect.MinY-1e-9 || c.Rect.MaxY > n.Rect.MaxY+1e-9 {
				t.Fatalf("child rect %v escapes parent %v", c.Rect, n.Rect)
			}
		}
		if parentArea := n.Rect.Width() * n.Rect.Height(); math.Abs(area-parentArea) > 1e-6*parentArea {
			t.Fatalf("node %d children cover %g of %g area", n.ID(), area, parentArea)
		}
		if math.Abs(mass-n.Mass) > 1e-9 {
			t.Fatalf("node %d children mass %g != node mass %g", n.ID(), mass, n.Mass)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Root)
	if tree.Root.Mass < 0.999 {
		t.Errorf("root mass %g want ~1", tree.Root.Mass)
	}
}

// TestTreeMassBalance: sibling masses are roughly equal wherever the prior
// resolution allows (the defining property of the mass-median splits).
func TestTreeMassBalance(t *testing.T) {
	pts := clusteredPoints(20000, 5)
	p := testPrior(t, 128, pts)
	tree, err := BuildTree(p, 1.0, 2, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root
	for i, c := range root.Children {
		if c.Mass < 0.10 || c.Mass > 0.45 {
			t.Errorf("root child %d mass %.3f, want near 0.25 (mass-balanced split)", i, c.Mass)
		}
	}
}

// TestAdaptiveCellsSmallerDowntown: leaves covering the dense cluster are
// smaller than leaves covering empty space.
func TestAdaptiveCellsSmallerDowntown(t *testing.T) {
	pts := clusteredPoints(20000, 7)
	p := testPrior(t, 128, pts)
	tree, err := BuildTree(p, 1.0, 3, 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	var denseSide, sparseSide float64
	var denseN, sparseN int
	for _, leaf := range tree.Leaves() {
		side := math.Sqrt(leaf.Rect.Width() * leaf.Rect.Height())
		if leaf.Rect.Contains(geo.Point{X: 5, Y: 5}) || leaf.Rect.Contains(geo.Point{X: 14, Y: 12}) {
			denseSide += side
			denseN++
		}
		if leaf.Rect.Contains(geo.Point{X: 19, Y: 1}) || leaf.Rect.Contains(geo.Point{X: 1, Y: 19}) {
			sparseSide += side
			sparseN++
		}
	}
	if denseN == 0 || sparseN == 0 {
		t.Fatal("test geometry assumption failed")
	}
	if denseSide/float64(denseN) >= sparseSide/float64(sparseN) {
		t.Errorf("dense leaves (%.2f km) not smaller than sparse leaves (%.2f km)",
			denseSide/float64(denseN), sparseSide/float64(sparseN))
	}
}

// pathBudget returns the total budget consumed along the root path of m's
// tree leading to the leaf containing p.
func pathBudget(m *Mechanism, p geo.Point) float64 {
	p = m.cfg.Region.Clamp(p)
	total := 0.0
	node := m.Tree().Root
	for node.Children != nil {
		total += node.Eps
		xi := node.ChildContaining(p)
		if xi < 0 {
			xi = 0
		}
		node = node.Children[xi]
	}
	return total
}

// TestPathBudgetConservation: every root-to-leaf path consumes exactly eps.
func TestPathBudgetConservation(t *testing.T) {
	pts := clusteredPoints(5000, 9)
	m, err := New(Config{
		Eps: 0.7, Region: geo.NewSquare(20), Fanout: 3, Height: 3,
		Metric: geo.Euclidean, PriorPoints: pts,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 3))
	for i := 0; i < 200; i++ {
		p := geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
		if got := pathBudget(m, p); math.Abs(got-0.7) > 1e-9 {
			t.Fatalf("path through %v consumes %g, want 0.7", p, got)
		}
	}
}

func TestMechanismValidation(t *testing.T) {
	base := Config{Eps: 0.5, Region: geo.NewSquare(20), Fanout: 3, Metric: geo.Euclidean}
	bad := base
	bad.Region = geo.Rect{}
	if _, err := New(bad, 1); err == nil {
		t.Error("degenerate region should error")
	}
	bad = base
	bad.Metric = geo.Metric(9)
	if _, err := New(bad, 1); err == nil {
		t.Error("bad metric should error")
	}
	bad = base
	bad.Eps = -1
	if _, err := New(bad, 1); err == nil {
		t.Error("negative eps should error")
	}
}

func TestReportDeterministicAndInRegion(t *testing.T) {
	pts := clusteredPoints(3000, 11)
	mk := func() *Mechanism {
		m, err := New(Config{
			Eps: 0.5, Region: geo.NewSquare(20), Fanout: 3,
			Metric: geo.Euclidean, PriorPoints: pts,
		}, 77)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := mk(), mk()
	region := geo.NewSquare(20)
	for i := 0; i < 60; i++ {
		x := pts[i%len(pts)]
		z1, err1 := m1.ReportCtx(context.Background(), x)
		z2, err2 := m2.ReportCtx(context.Background(), x)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if z1 != z2 {
			t.Fatalf("report %d diverged: %v vs %v", i, z1, z2)
		}
		if !region.ContainsClosed(z1) {
			t.Fatalf("report %v outside region", z1)
		}
	}
}

func TestPrecomputeAndCache(t *testing.T) {
	pts := clusteredPoints(2000, 13)
	m, err := New(Config{
		Eps: 0.5, Region: geo.NewSquare(20), Fanout: 2, Height: 3,
		Metric: geo.Euclidean, PriorPoints: pts,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PrecomputeCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, before := m.Stats()
	rng := rand.New(rand.NewPCG(6, 7))
	for i := 0; i < 100; i++ {
		if _, err := m.ReportWith(geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}, rng); err != nil {
			t.Fatal(err)
		}
	}
	if _, after := m.Stats(); after != before {
		t.Errorf("warm mechanism performed %d extra solves", after-before)
	}
}

// TestAdaptiveUtilityCompetitive: on a strongly clustered prior the
// adaptive mechanism should not lose badly to (and typically beats) the
// uniform-grid flat OPT at the same budget, since its cells are small where
// the queries are.
func TestAdaptiveUtilityCompetitive(t *testing.T) {
	pts := clusteredPoints(20000, 17)
	m, err := New(Config{
		Eps: 0.5, Region: geo.NewSquare(20), Fanout: 3, Height: 2,
		Metric: geo.Euclidean, PriorPoints: pts,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(8, 9))
	loss := 0.0
	const nq = 1500
	for i := 0; i < nq; i++ {
		x := pts[rng.IntN(len(pts))]
		z, err := m.ReportWith(x, rng)
		if err != nil {
			t.Fatal(err)
		}
		loss += x.Dist(z)
	}
	loss /= nq
	// PL at eps=0.5 has mean loss 2/eps = 4 km; the adaptive mechanism must
	// be clearly better on clustered data.
	if loss >= 3.5 {
		t.Errorf("adaptive MSM mean loss %.3f km too high", loss)
	}
	t.Logf("adaptive MSM mean loss %.3f km (mean leaf side %.2f km)", loss, m.MeanLeafSide())
}

// TestMeanLeafSideShrinksWithBudget: more budget affords deeper descents,
// hence finer mass-weighted leaf cells.
func TestMeanLeafSideShrinksWithBudget(t *testing.T) {
	pts := clusteredPoints(10000, 19)
	prev := math.Inf(1)
	for _, eps := range []float64{0.2, 0.8, 3.0} {
		m, err := New(Config{
			Eps: eps, Region: geo.NewSquare(20), Fanout: 3, Height: 3,
			Metric: geo.Euclidean, PriorPoints: pts,
		}, 5)
		if err != nil {
			t.Fatal(err)
		}
		side := m.MeanLeafSide()
		if side > prev+1e-9 {
			t.Errorf("eps=%g: mean leaf side %.3f grew (prev %.3f)", eps, side, prev)
		}
		prev = side
	}
}
