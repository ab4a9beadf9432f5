// Package grid implements the spatial discretization structures of the
// paper: the regular grid used by the baseline OPT mechanism (§3.2) and the
// GeoInd-preserving Hierarchical Index (GIHI, §4, Fig. 4) traversed by the
// multi-step mechanism. Cells are indexed row-major; a hierarchy of height h
// with fanout g^2 has granularity g^i at level i, with level 0 being the
// single virtual root node.
package grid

import (
	"fmt"

	"geoind/internal/geo"
)

// MaxCellsPerSide bounds grid granularity to prevent accidental
// mis-configuration from exhausting memory (g^h grows quickly).
const MaxCellsPerSide = 1 << 14

// Grid is a regular g x g partition of a rectangular region. The logical
// locations of the paper (§3.1) are the cell centers.
type Grid struct {
	bounds geo.Rect
	g      int
	cellW  float64
	cellH  float64
}

// New returns a g x g grid over bounds.
func New(bounds geo.Rect, g int) (*Grid, error) {
	if g < 1 || g > MaxCellsPerSide {
		return nil, fmt.Errorf("grid: granularity %d out of range [1,%d]", g, MaxCellsPerSide)
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("grid: degenerate bounds %v", bounds)
	}
	return &Grid{
		bounds: bounds,
		g:      g,
		cellW:  bounds.Width() / float64(g),
		cellH:  bounds.Height() / float64(g),
	}, nil
}

// MustNew is New panicking on error, for statically valid arguments.
func MustNew(bounds geo.Rect, g int) *Grid {
	gr, err := New(bounds, g)
	if err != nil {
		panic(err)
	}
	return gr
}

// Bounds returns the spatial extent of the grid.
func (gr *Grid) Bounds() geo.Rect { return gr.bounds }

// Granularity returns g, the number of cells per side.
func (gr *Grid) Granularity() int { return gr.g }

// NumCells returns g*g.
func (gr *Grid) NumCells() int { return gr.g * gr.g }

// CellSize returns the width and height of one cell.
func (gr *Grid) CellSize() (w, h float64) { return gr.cellW, gr.cellH }

// Index converts a (row, col) pair into a cell index.
func (gr *Grid) Index(row, col int) int { return row*gr.g + col }

// RowCol converts a cell index into its (row, col) pair.
func (gr *Grid) RowCol(idx int) (row, col int) { return idx / gr.g, idx % gr.g }

// CellIndex returns the index of the cell enclosing p. ok is false when p is
// outside the grid bounds; in that case idx is -1.
func (gr *Grid) CellIndex(p geo.Point) (idx int, ok bool) {
	if !gr.bounds.Contains(p) {
		return -1, false
	}
	col := int((p.X - gr.bounds.MinX) / gr.cellW)
	row := int((p.Y - gr.bounds.MinY) / gr.cellH)
	// Floating-point division can round a boundary point up.
	if col >= gr.g {
		col = gr.g - 1
	}
	if row >= gr.g {
		row = gr.g - 1
	}
	return gr.Index(row, col), true
}

// ClampIndex returns the index of the cell enclosing p after clamping p into
// the grid bounds. It is EnclosingCell(x, i) of the paper for points that
// may lie slightly outside the current subdomain.
func (gr *Grid) ClampIndex(p geo.Point) int {
	idx, ok := gr.CellIndex(p)
	if ok {
		return idx
	}
	idx, _ = gr.CellIndex(gr.bounds.Clamp(p))
	return idx
}

// CellRect returns the spatial extent of cell idx.
func (gr *Grid) CellRect(idx int) geo.Rect {
	row, col := gr.RowCol(idx)
	return geo.Rect{
		MinX: gr.bounds.MinX + float64(col)*gr.cellW,
		MinY: gr.bounds.MinY + float64(row)*gr.cellH,
		MaxX: gr.bounds.MinX + float64(col+1)*gr.cellW,
		MaxY: gr.bounds.MinY + float64(row+1)*gr.cellH,
	}
}

// Center returns the logical location of cell idx: its center (the
// centerOf(C) procedure of §4).
func (gr *Grid) Center(idx int) geo.Point {
	row, col := gr.RowCol(idx)
	return geo.Point{
		X: gr.bounds.MinX + (float64(col)+0.5)*gr.cellW,
		Y: gr.bounds.MinY + (float64(row)+0.5)*gr.cellH,
	}
}

// Snap maps p to the center of its enclosing cell, clamping p into bounds
// first. This is the grid discretization step of §3.1.
func (gr *Grid) Snap(p geo.Point) geo.Point {
	return gr.Center(gr.ClampIndex(p))
}

// Centers returns the centers of all cells in index order.
func (gr *Grid) Centers() []geo.Point {
	out := make([]geo.Point, gr.NumCells())
	for i := range out {
		out[i] = gr.Center(i)
	}
	return out
}

// Hierarchy is the GIHI: a conceptual stack of grids over the same root
// region where level i has granularity fanout^i, for i in 1..height. Level 0
// is the virtual root node RN covering the whole region (Fig. 4).
type Hierarchy struct {
	root   geo.Rect
	fanout int
	height int
	levels []*Grid // levels[i-1] is the full grid at level i
	// cols[i][c] and rows[i][r] are column c and row r of level i < height
	// (level 0: the root) as SubGrid sees them, for ChildCell.
	cols, rows [][]span
}

// span is the extent [lo, hi) of one column or row of a level and the size
// of each of its fanout children along it, as SubGrid computes them.
type span struct{ lo, hi, step float64 }

// child is Grid.CellIndex along one axis of the subgrid.
func (s span) child(v float64, fanout int) (int, bool) {
	if !(v >= s.lo && v < s.hi) {
		return -1, false
	}
	return min(int((v-s.lo)/s.step), fanout-1), true
}

// NewHierarchy builds a hierarchy of the given fanout (cells per side per
// step, the paper's g) and height (number of levels below the root).
func NewHierarchy(root geo.Rect, fanout, height int) (*Hierarchy, error) {
	if fanout < 2 {
		return nil, fmt.Errorf("grid: hierarchy fanout %d < 2", fanout)
	}
	if height < 1 {
		return nil, fmt.Errorf("grid: hierarchy height %d < 1", height)
	}
	side := 1
	for i := 0; i < height; i++ {
		side *= fanout
		if side > MaxCellsPerSide {
			return nil, fmt.Errorf("grid: effective granularity %d^%d exceeds %d", fanout, height, MaxCellsPerSide)
		}
	}
	h := &Hierarchy{root: root, fanout: fanout, height: height}
	g := 1
	for i := 1; i <= height; i++ {
		g *= fanout
		gr, err := New(root, g)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, gr)
	}
	f := float64(fanout)
	h.cols = [][]span{{{root.MinX, root.MaxX, root.Width() / f}}}
	h.rows = [][]span{{{root.MinY, root.MaxY, root.Height() / f}}}
	for _, gr := range h.levels[:height-1] {
		cols, rows := make([]span, gr.g), make([]span, gr.g)
		for i := range gr.g {
			c, r := gr.CellRect(gr.Index(0, i)), gr.CellRect(gr.Index(i, 0))
			cols[i] = span{c.MinX, c.MaxX, c.Width() / f}
			rows[i] = span{r.MinY, r.MaxY, r.Height() / f}
		}
		h.cols, h.rows = append(h.cols, cols), append(h.rows, rows)
	}
	return h, nil
}

// Root returns the extent of the virtual root node.
func (h *Hierarchy) Root() geo.Rect { return h.root }

// Fanout returns g (cells per side introduced per level).
func (h *Hierarchy) Fanout() int { return h.fanout }

// Height returns the number of levels below the virtual root.
func (h *Hierarchy) Height() int { return h.height }

// LeafGranularity returns fanout^height, the effective granularity of the
// leaf level.
func (h *Hierarchy) LeafGranularity() int { return h.levels[h.height-1].Granularity() }

// LevelGrid returns the full grid at level i (1-based). Level 0 is the
// virtual root and has no grid.
func (h *Hierarchy) LevelGrid(level int) *Grid {
	if level < 1 || level > h.height {
		panic(fmt.Sprintf("grid: level %d out of range [1,%d]", level, h.height))
	}
	return h.levels[level-1]
}

// SubGrid returns the fanout x fanout partial grid covering the spatial
// extent of cell parentIdx at level (the set G_i of Algorithm 1 for the
// enclosing cell C). For level 0 pass parentIdx 0: the result covers the
// whole root region. It is returned by value, with New's arithmetic, so the
// per-level call on the report path allocates nothing.
func (h *Hierarchy) SubGrid(level, parentIdx int) Grid {
	var rect geo.Rect
	if level == 0 {
		rect = h.root
	} else {
		rect = h.LevelGrid(level).CellRect(parentIdx)
	}
	return Grid{
		bounds: rect,
		g:      h.fanout,
		cellW:  rect.Width() / float64(h.fanout),
		cellH:  rect.Height() / float64(h.fanout),
	}
}

// ChildCell returns SubGrid(level, parentIdx).CellIndex(p), bit for bit,
// for the parent cell at (row, col) of level (0, 0 for the virtual root),
// without building the subgrid: NewHierarchy precomputes the bounds and cell
// sizes SubGrid would derive.
func (h *Hierarchy) ChildCell(level, row, col int, p geo.Point) (idx int, ok bool) {
	c, okc := h.cols[level][col].child(p.X, h.fanout)
	r, okr := h.rows[level][row].child(p.Y, h.fanout)
	if !okc || !okr {
		return -1, false
	}
	return r*h.fanout + c, true
}
