package grid

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"geoind/internal/geo"
)

func unit20() geo.Rect { return geo.NewSquare(20) }

func TestNewValidation(t *testing.T) {
	if _, err := New(unit20(), 0); err == nil {
		t.Error("g=0 should error")
	}
	if _, err := New(unit20(), MaxCellsPerSide+1); err == nil {
		t.Error("huge g should error")
	}
	if _, err := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 0, MaxY: 10}, 4); err == nil {
		t.Error("degenerate bounds should error")
	}
	if _, err := New(unit20(), 4); err != nil {
		t.Errorf("valid grid errored: %v", err)
	}
}

func TestCellIndexAndCenters(t *testing.T) {
	gr := MustNew(unit20(), 4) // 5km cells
	idx, ok := gr.CellIndex(geo.Point{X: 0.1, Y: 0.1})
	if !ok || idx != 0 {
		t.Errorf("bottom-left cell: idx=%d ok=%v", idx, ok)
	}
	idx, ok = gr.CellIndex(geo.Point{X: 19.9, Y: 19.9})
	if !ok || idx != 15 {
		t.Errorf("top-right cell: idx=%d ok=%v", idx, ok)
	}
	idx, ok = gr.CellIndex(geo.Point{X: 7.5, Y: 12.5})
	if !ok || idx != gr.Index(2, 1) {
		t.Errorf("mid cell: idx=%d ok=%v want %d", idx, ok, gr.Index(2, 1))
	}
	if _, ok := gr.CellIndex(geo.Point{X: -1, Y: 5}); ok {
		t.Error("outside point should not resolve")
	}
	if _, ok := gr.CellIndex(geo.Point{X: 20, Y: 5}); ok {
		t.Error("max edge is exclusive")
	}
	c := gr.Center(0)
	if math.Abs(c.X-2.5) > 1e-12 || math.Abs(c.Y-2.5) > 1e-12 {
		t.Errorf("Center(0)=%v want (2.5,2.5)", c)
	}
	w, h := gr.CellSize()
	if w != 5 || h != 5 {
		t.Errorf("CellSize=(%g,%g) want (5,5)", w, h)
	}
}

func TestRowColRoundTrip(t *testing.T) {
	gr := MustNew(unit20(), 7)
	for idx := 0; idx < gr.NumCells(); idx++ {
		r, c := gr.RowCol(idx)
		if gr.Index(r, c) != idx {
			t.Fatalf("Index(RowCol(%d)) = %d", idx, gr.Index(r, c))
		}
	}
}

// Property: every in-bounds point maps to the cell whose rect contains it,
// and the cell center snaps back to the same cell.
func TestCellIndexConsistency(t *testing.T) {
	gr := MustNew(unit20(), 9)
	f := func(rx, ry float64) bool {
		p := geo.Point{X: math.Abs(math.Mod(rx, 20)), Y: math.Abs(math.Mod(ry, 20))}
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			return true
		}
		idx, ok := gr.CellIndex(p)
		if !ok {
			return false
		}
		if !gr.CellRect(idx).Contains(p) {
			return false
		}
		c := gr.Center(idx)
		cIdx, ok := gr.CellIndex(c)
		return ok && cIdx == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampIndexAndSnap(t *testing.T) {
	gr := MustNew(unit20(), 4)
	if got := gr.ClampIndex(geo.Point{X: -5, Y: -5}); got != 0 {
		t.Errorf("ClampIndex(-5,-5)=%d want 0", got)
	}
	if got := gr.ClampIndex(geo.Point{X: 100, Y: 100}); got != 15 {
		t.Errorf("ClampIndex(100,100)=%d want 15", got)
	}
	s := gr.Snap(geo.Point{X: 1, Y: 1})
	if math.Abs(s.X-2.5) > 1e-12 || math.Abs(s.Y-2.5) > 1e-12 {
		t.Errorf("Snap=(%v) want (2.5,2.5)", s)
	}
}

func TestCentersCount(t *testing.T) {
	gr := MustNew(unit20(), 5)
	cs := gr.Centers()
	if len(cs) != 25 {
		t.Fatalf("len=%d want 25", len(cs))
	}
	// All centers distinct and in bounds.
	seen := map[geo.Point]bool{}
	for _, c := range cs {
		if seen[c] {
			t.Fatalf("duplicate center %v", c)
		}
		seen[c] = true
		if !gr.Bounds().Contains(c) {
			t.Fatalf("center %v out of bounds", c)
		}
	}
}

func TestHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(unit20(), 1, 3); err == nil {
		t.Error("fanout 1 should error")
	}
	if _, err := NewHierarchy(unit20(), 2, 0); err == nil {
		t.Error("height 0 should error")
	}
	if _, err := NewHierarchy(unit20(), 4, 10); err == nil {
		t.Error("4^10 cells per side should exceed the cap")
	}
}

func TestHierarchyLevels(t *testing.T) {
	h, err := NewHierarchy(unit20(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Fanout() != 3 || h.Height() != 3 || h.LeafGranularity() != 27 {
		t.Fatalf("fanout/height/leaf = %d/%d/%d", h.Fanout(), h.Height(), h.LeafGranularity())
	}
	for lvl := 1; lvl <= 3; lvl++ {
		want := int(math.Pow(3, float64(lvl)))
		if got := h.LevelGrid(lvl).Granularity(); got != want {
			t.Errorf("level %d granularity %d want %d", lvl, got, want)
		}
	}
}

func TestSubGridRootCoversRegion(t *testing.T) {
	h, _ := NewHierarchy(unit20(), 2, 3)
	sg := h.SubGrid(0, 0)
	if sg.Bounds() != unit20() {
		t.Errorf("root subgrid bounds %v", sg.Bounds())
	}
	if sg.Granularity() != 2 {
		t.Errorf("root subgrid granularity %d", sg.Granularity())
	}
}

// TestChildIndexGeometry: the rect of local cell j of SubGrid(level, parent)
// equals the rect of global cell ChildIndex(level, parent, j) at level+1.
func TestChildIndexGeometry(t *testing.T) {
	h, _ := NewHierarchy(unit20(), 3, 3)
	for level := 0; level < 3; level++ {
		nParents := 1
		if level > 0 {
			nParents = h.LevelGrid(level).NumCells()
		}
		for parent := 0; parent < nParents; parent++ {
			sg := h.SubGrid(level, parent)
			for local := 0; local < sg.NumCells(); local++ {
				global := h.ChildIndex(level, parent, local)
				got := sg.CellRect(local)
				want := h.LevelGrid(level + 1).CellRect(global)
				if math.Abs(got.MinX-want.MinX) > 1e-9 || math.Abs(got.MinY-want.MinY) > 1e-9 ||
					math.Abs(got.MaxX-want.MaxX) > 1e-9 || math.Abs(got.MaxY-want.MaxY) > 1e-9 {
					t.Fatalf("level %d parent %d local %d: %v != %v", level, parent, local, got, want)
				}
			}
		}
	}
}

// TestParentChildInverse: ParentIndex inverts ChildIndex.
func TestParentChildInverse(t *testing.T) {
	h, _ := NewHierarchy(unit20(), 4, 3)
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 200; trial++ {
		level := rng.IntN(3) // 0..2
		nParents := 1
		if level > 0 {
			nParents = h.LevelGrid(level).NumCells()
		}
		parent := rng.IntN(nParents)
		local := rng.IntN(h.Fanout() * h.Fanout())
		child := h.ChildIndex(level, parent, local)
		if got := h.ParentIndex(level+1, child); got != parent {
			t.Fatalf("ParentIndex(level=%d, child=%d)=%d want %d", level+1, child, got, parent)
		}
	}
}

// TestHierarchyPointDescent: descending through enclosing cells lands in the
// same leaf cell as direct indexing at the leaf grid.
func TestHierarchyPointDescent(t *testing.T) {
	h, _ := NewHierarchy(unit20(), 3, 3)
	rng := rand.New(rand.NewPCG(8, 9))
	for trial := 0; trial < 500; trial++ {
		p := geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
		parent := 0
		for level := 0; level < h.Height(); level++ {
			sg := h.SubGrid(level, parent)
			local := sg.ClampIndex(p)
			parent = h.ChildIndex(level, parent, local)
		}
		direct, ok := h.LevelGrid(h.Height()).CellIndex(p)
		if !ok || parent != direct {
			t.Fatalf("descent landed at %d, direct index %d (ok=%v) for %v", parent, direct, ok, p)
		}
	}
}

func TestLevelGridPanicsOutOfRange(t *testing.T) {
	h, _ := NewHierarchy(unit20(), 2, 2)
	for _, lvl := range []int{0, 3, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LevelGrid(%d) should panic", lvl)
				}
			}()
			h.LevelGrid(lvl)
		}()
	}
}

// TestChildCellMatchesSubGrid pins ChildCell to SubGrid(level, parent).
// CellIndex bit for bit: on odd-sized, off-origin regions, for every parent
// cell of every level, at random points around the cell and at every child
// boundary, one float step either side of it, and at NaN.
func TestChildCellMatchesSubGrid(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 7))
	for _, c := range []struct {
		root           geo.Rect
		fanout, height int
	}{
		{unit20(), 3, 3},
		{geo.Rect{MinX: -3.7, MinY: 11.1, MaxX: 13.6, MaxY: 29.9}, 6, 2},
		{geo.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.7, MaxY: 0.3}, 7, 2},
		{geo.Rect{MinX: 1e3 / 3, MinY: -1, MaxX: 2e3 / 3, MaxY: 1e2 / 7}, 2, 4},
	} {
		h, err := NewHierarchy(c.root, c.fanout, c.height)
		if err != nil {
			t.Fatal(err)
		}
		for level := 0; level < c.height; level++ {
			side := 1
			if level > 0 {
				side = h.LevelGrid(level).Granularity()
			}
			for parent := 0; parent < side*side; parent++ {
				sub := h.SubGrid(level, parent)
				b := sub.Bounds()
				w, hh := sub.CellSize()
				var xs, ys []float64
				for k := 0; k <= c.fanout; k++ {
					for _, v := range []float64{b.MinX + float64(k)*w, b.MinX + (float64(k)+0.5)*w} {
						xs = append(xs, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
					}
					for _, v := range []float64{b.MinY + float64(k)*hh, b.MinY + (float64(k)+0.5)*hh} {
						ys = append(ys, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
					}
				}
				xs = append(xs, b.MaxX, math.Nextafter(b.MaxX, math.Inf(-1)), math.NaN())
				ys = append(ys, b.MaxY, math.Nextafter(b.MaxY, math.Inf(-1)), math.NaN())
				for range 20 {
					xs = append(xs, b.MinX-w+rng.Float64()*(b.Width()+2*w))
					ys = append(ys, b.MinY-hh+rng.Float64()*(b.Height()+2*hh))
				}
				row, col := parent/side, parent%side
				for _, x := range xs {
					for _, y := range ys {
						p := geo.Point{X: x, Y: y}
						wantIdx, wantOK := sub.CellIndex(p)
						if idx, ok := h.ChildCell(level, row, col, p); idx != wantIdx || ok != wantOK {
							t.Fatalf("%v fanout %d level %d parent %d at %v: ChildCell (%d, %v), SubGrid.CellIndex (%d, %v)",
								c.root, c.fanout, level, parent, p, idx, ok, wantIdx, wantOK)
						}
					}
				}
			}
		}
	}
}
