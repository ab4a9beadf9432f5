package core

import (
	"context"
	"fmt"

	"geoind/internal/geo"
)

// MaxExactChannelCells bounds the leaf-grid size for which ExactChannel will
// materialize the full end-to-end matrix.
const MaxExactChannelCells = 4096

// ExactChannel computes the exact end-to-end channel of the multi-step
// mechanism: entry [x*n+z] is the probability that MSM reports leaf cell z
// when the true location is the center of leaf cell x, marginalized over all
// descent paths. Out-of-subdomain inputs use the uniform-random substitution
// of Algorithm 1 line 10, which corresponds to averaging the channel rows.
//
// This is a diagnostic/audit tool (it solves every channel in the index and
// costs O(n * paths)); it powers the privacy-audit tests and the effective-
// epsilon experiment, not the serving path.
func (m *Mechanism) ExactChannel() ([]float64, error) {
	leaf := m.LeafGrid()
	n := leaf.NumCells()
	if n > MaxExactChannelCells {
		return nil, fmt.Errorf("msm: exact channel needs %d <= %d leaf cells", n, MaxExactChannelCells)
	}
	out := make([]float64, n*n)
	for x := 0; x < n; x++ {
		row, err := m.exactRow(leaf.Center(x))
		if err != nil {
			return nil, err
		}
		copy(out[x*n:(x+1)*n], row)
	}
	return out, nil
}

// exactRow returns the exact leaf-cell output distribution for true point x.
func (m *Mechanism) exactRow(x geo.Point) ([]float64, error) {
	gg := m.cfg.G * m.cfg.G
	dist := map[int]float64{0: 1}
	for level := 0; level < m.Height(); level++ {
		next := make(map[int]float64, len(dist)*gg)
		for parent, q := range dist {
			ch, err := m.channel(context.Background(), level, parent)
			if err != nil {
				return nil, err
			}
			sub := m.hier.SubGrid(level, parent)
			var row []float64
			if xLocal, ok := sub.CellIndex(x); ok {
				row = ch.Row(xLocal)
			} else {
				// Uniform random substitute input: average of all rows.
				avg := make([]float64, gg)
				for xi := 0; xi < gg; xi++ {
					for z, v := range ch.Row(xi) {
						avg[z] += v
					}
				}
				for z := range avg {
					avg[z] /= float64(gg)
				}
				row = avg
			}
			for z, p := range row {
				if p == 0 {
					continue
				}
				next[m.hier.ChildIndex(level, parent, z)] += q * p
			}
		}
		dist = next
	}
	out := make([]float64, m.LeafGrid().NumCells())
	for cell, q := range dist {
		out[cell] = q
	}
	return out, nil
}
