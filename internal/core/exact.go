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
	p := gihi{m}
	gg := m.cfg.G * m.cfg.G
	dist := map[cell]float64{p.Root(): 1}
	for level := 0; level < m.Height(); level++ {
		next := make(map[cell]float64, len(dist)*gg)
		for parent, q := range dist {
			ch, err := m.Channel(context.Background(), parent)
			if err != nil {
				return nil, err
			}
			var row []float64
			if xLocal := p.Enclosing(parent, x); xLocal >= 0 {
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
			for z, pz := range row {
				if pz == 0 {
					continue
				}
				next[p.Child(parent, z)] += q * pz
			}
		}
		dist = next
	}
	out := make([]float64, m.LeafGrid().NumCells())
	for c, q := range dist {
		out[c.idx()] = q
	}
	return out, nil
}
