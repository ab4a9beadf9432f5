package adaptive

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"geoind/internal/geo"
)

func quadCfg(pts []geo.Point) QuadConfig {
	return QuadConfig{
		Eps:         3.0, // enough for several levels
		Region:      geo.NewSquare(20),
		Metric:      geo.Euclidean,
		PriorPoints: pts,
	}
}

func TestNewQuadValidation(t *testing.T) {
	base := quadCfg(nil)
	mods := []func(*QuadConfig){
		func(c *QuadConfig) { c.Eps = 0 },
		func(c *QuadConfig) { c.Region = geo.Rect{} },
		func(c *QuadConfig) { c.MassThreshold = 1.5 },
		func(c *QuadConfig) { c.MaxDepth = 13 },
		func(c *QuadConfig) { c.Rho = 2 },
		func(c *QuadConfig) { c.Metric = geo.Metric(9) },
		func(c *QuadConfig) { c.PriorGranularity = 100; c.MaxDepth = 5 }, // 100 % 32 != 0
	}
	for i, mod := range mods {
		cfg := base
		mod(&cfg)
		if _, err := NewQuad(cfg, 1); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := NewQuad(base, 1); err != nil {
		t.Fatalf("base config: %v", err)
	}
}

// depthAt returns the leaf depth of the subtree of m's tree containing p.
func depthAt(m *Mechanism, p geo.Point) int {
	p = m.cfg.Region.Clamp(p)
	node := m.Tree().Root
	for node.Children != nil {
		next := node.Children[0]
		for _, c := range node.Children {
			if c.Rect.Contains(p) {
				next = c
				break
			}
		}
		node = next
	}
	return node.Level
}

// TestQuadDepthAdaptsToDensity: the tree is deeper over the dense cluster
// than over empty space.
func TestQuadDepthAdaptsToDensity(t *testing.T) {
	pts := clusteredPoints(20000, 3)
	m, err := NewQuad(quadCfg(pts), 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := m.Tree()
	dense := depthAt(m, geo.Point{X: 5, Y: 5})   // cluster center
	sparse := depthAt(m, geo.Point{X: 19, Y: 1}) // empty corner
	if dense <= sparse {
		t.Errorf("dense depth %d not greater than sparse depth %d", dense, sparse)
	}
	if tree.MaxDepthUsed() < 2 {
		t.Errorf("tree too shallow: %d", tree.MaxDepthUsed())
	}
	t.Logf("depth at cluster %d, at empty corner %d, max %d, nodes %d",
		dense, sparse, tree.MaxDepthUsed(), tree.NumNodes())
}

// TestQuadBudgetBoundPerPath: the budget consumed along any root-leaf path
// never exceeds eps.
func TestQuadBudgetBoundPerPath(t *testing.T) {
	pts := clusteredPoints(10000, 5)
	cfg := quadCfg(pts)
	cfg.Eps = 1.2
	m, err := NewQuad(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *Node, spent float64)
	walk = func(n *Node, spent float64) {
		spent += n.Eps
		if spent > cfg.Eps+1e-9 {
			t.Fatalf("path through node %d spends %g > %g", n.ID(), spent, cfg.Eps)
		}
		for _, c := range n.Children {
			walk(c, spent)
		}
	}
	walk(m.Tree().Root, 0)
}

// TestQuadPartitionInvariant: children exactly tile their parent and carry
// its mass.
func TestQuadPartitionInvariant(t *testing.T) {
	pts := clusteredPoints(5000, 7)
	m, err := NewQuad(quadCfg(pts), 1)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Children == nil {
			return
		}
		if len(n.Children) != 4 {
			t.Fatalf("node %d has %d children", n.ID(), len(n.Children))
		}
		area, mass := 0.0, 0.0
		for _, c := range n.Children {
			area += c.Rect.Width() * c.Rect.Height()
			mass += c.Mass
		}
		pArea := n.Rect.Width() * n.Rect.Height()
		if math.Abs(area-pArea) > 1e-6*pArea {
			t.Fatalf("node %d: children area %g vs %g", n.ID(), area, pArea)
		}
		if math.Abs(mass-n.Mass) > 1e-9 {
			t.Fatalf("node %d: children mass %g vs %g", n.ID(), mass, n.Mass)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(m.Tree().Root)
}

func TestQuadReportDeterministicAndInRegion(t *testing.T) {
	pts := clusteredPoints(3000, 9)
	mk := func() *Mechanism {
		m, err := NewQuad(quadCfg(pts), 11)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := mk(), mk()
	region := geo.NewSquare(20)
	for i := 0; i < 50; i++ {
		x := pts[i%len(pts)]
		z1, err1 := m1.ReportCtx(context.Background(), x)
		z2, err2 := m2.ReportCtx(context.Background(), x)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if z1 != z2 {
			t.Fatalf("report %d diverged", i)
		}
		if !region.ContainsClosed(z1) {
			t.Fatalf("report %v outside region", z1)
		}
	}
}

func TestQuadPrecomputeAndUtility(t *testing.T) {
	pts := clusteredPoints(20000, 13)
	cfg := quadCfg(pts)
	cfg.Eps = 2.0
	m, err := NewQuad(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PrecomputeCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, before := m.Stats()
	rng := rand.New(rand.NewPCG(6, 7))
	loss := 0.0
	const nq = 1000
	for i := 0; i < nq; i++ {
		x := pts[rng.IntN(len(pts))]
		z, err := m.ReportWith(x, rng)
		if err != nil {
			t.Fatal(err)
		}
		loss += x.Dist(z)
	}
	if _, after := m.Stats(); after != before {
		t.Errorf("warm quadtree performed %d extra solves", after-before)
	}
	loss /= nq
	// The quadtree's 2x2 fanout is budget-hungry: each resolution doubling
	// costs a full Problem-1 level, so at moderate budgets it trails the
	// wider-fanout mechanisms (an honest finding recorded in
	// EXPERIMENTS.md). It must still be far more informative than blind
	// guessing: the prior medoid alone gives ~5 km mean loss on this
	// workload.
	if loss >= 3.0 {
		t.Errorf("quadtree mean loss %.3f km not informative", loss)
	}
	t.Logf("quadtree mean loss %.3f km (nodes %d, max depth %d)", loss, m.Tree().NumNodes(), m.Tree().MaxDepthUsed())
}
