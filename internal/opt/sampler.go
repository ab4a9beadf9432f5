package opt

import (
	"fmt"
	"math/rand/v2"
)

// Warm-path sampling is abstracted behind Sampler so the serving layers can
// choose their speed/​memory point without touching the channel math:
//
//   - SamplerCum is the historical per-row cumulative binary search
//     (O(log n) per draw). It consumes exactly one rng.Float64() per draw in
//     the exact sequence the pre-refactor SampleIndex did, so it is the
//     bit-compatibility reference and the correctness oracle the alias
//     implementation is tested against (TV distance / chi-square).
//   - SamplerAlias is a Walker/Vose alias table: O(1) per draw, branch-light,
//     distribution-exact up to float64 rounding of the table construction.
//     Tables are built lazily, once per channel, and shared by every
//     goroutine sampling that channel (the build is guarded by a sync.Once).
//
// Both kinds exist for dense and compact (pruned) channels; Channel.Sampler
// and PointChannel.Sampler return the right implementation for their
// representation.

// SamplerKind selects a warm-path sampling implementation.
type SamplerKind int

const (
	// SamplerCum is the cumulative-row binary search (reference/oracle).
	SamplerCum SamplerKind = iota
	// SamplerAlias is the O(1) Walker alias-method table.
	SamplerAlias
)

// String returns the flag spelling of the kind.
func (k SamplerKind) String() string {
	switch k {
	case SamplerCum:
		return "cum"
	case SamplerAlias:
		return "alias"
	default:
		return fmt.Sprintf("SamplerKind(%d)", int(k))
	}
}

// ParseSamplerKind parses a -sampler flag value. The empty string means the
// default (cum, the bit-compatible reference).
func ParseSamplerKind(s string) (SamplerKind, error) {
	switch s {
	case "", "cum":
		return SamplerCum, nil
	case "alias":
		return SamplerAlias, nil
	default:
		return 0, fmt.Errorf("opt: unknown sampler %q (want cum or alias)", s)
	}
}

// Sampler draws an output index for input index x. Implementations are safe
// for concurrent use: they are immutable after construction and rng is the
// only mutable state, owned by the caller.
type Sampler interface {
	Sample(x int, rng *rand.Rand) int
}

// searchCum locates u in a cumulative row by binary search: the smallest i
// with row[i] >= u, with the not-found edge case (u beyond the last entry,
// possible through float rounding) clamped onto the last index. It is
// sort.SearchFloat64s plus that clamp, written inline because the call
// through sort.Search's predicate closure dominated the warm draw.
func searchCum(row []float64, u float64) int {
	lo, hi := 0, len(row)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if !(row[mid] >= u) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sampleCumRow draws an index from one cumulative row: the single shared
// implementation of the clamped binary-search sampling step that
// Channel and PointChannel previously duplicated. Scaling the uniform draw
// by the final entry (≈1) keeps the draw stream bit-identical to the
// historical code for any row whose sum deviates from 1 in the last ulp.
func sampleCumRow(row []float64, rng *rand.Rand) int {
	return searchCum(row, rng.Float64()*row[len(row)-1])
}

// cumSampler is the reference Sampler over dense cumulative rows.
type cumSampler struct {
	n   int
	cum []float64
}

func (s cumSampler) Sample(x int, rng *rand.Rand) int {
	return sampleCumRow(s.cum[x*s.n:(x+1)*s.n], rng)
}

// aliasTable is a Walker/Vose alias table for a dense row-stochastic matrix:
// one n-slot table per row, flattened. A draw scales one uniform by n; the
// integer part picks a slot, the fractional part decides between the slot
// and its alias — O(1) and branch-light regardless of n.
type aliasTable struct {
	n     int
	prob  []float64 // n*n acceptance thresholds
	alias []int32   // n*n alias targets
}

func (t *aliasTable) Sample(x int, rng *rand.Rand) int {
	v := rng.Float64() * float64(t.n)
	i := int(v)
	if i >= t.n { // v == n is impossible, but guard float rounding
		i = t.n - 1
	}
	off := x*t.n + i
	if v-float64(i) < t.prob[off] {
		return i
	}
	return int(t.alias[off])
}

// newAliasTable builds the alias table of a dense n x n row-stochastic
// matrix. Cost is O(n) per row; the construction is deterministic, so every
// process building a table from the same matrix gets the same table.
func newAliasTable(n int, k []float64) *aliasTable {
	t := &aliasTable{n: n, prob: make([]float64, n*n), alias: make([]int32, n*n)}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for x := 0; x < n; x++ {
		buildAliasRow(k[x*n:(x+1)*n], t.prob[x*n:(x+1)*n], t.alias[x*n:(x+1)*n], scaled, &small, &large)
	}
	return t
}

// buildAliasRow fills one row's alias table from nonnegative weights w
// (Vose's stable formulation). scaled, small and large are caller-provided
// scratch to keep per-row allocations zero.
func buildAliasRow(w, prob []float64, alias []int32, scaled []float64, small, large *[]int32) {
	n := len(w)
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if sum <= 0 {
		// Degenerate row: fall back to uniform.
		for i := range prob {
			prob[i] = 1
			alias[i] = int32(i)
		}
		return
	}
	sm, lg := (*small)[:0], (*large)[:0]
	inv := float64(n) / sum
	for i, v := range w {
		scaled[i] = v * inv
		if scaled[i] < 1 {
			sm = append(sm, int32(i))
		} else {
			lg = append(lg, int32(i))
		}
	}
	for len(sm) > 0 && len(lg) > 0 {
		s := sm[len(sm)-1]
		sm = sm[:len(sm)-1]
		l := lg[len(lg)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			lg = lg[:len(lg)-1]
			sm = append(sm, l)
		}
	}
	// Leftovers (float residue) are exactly-1 slots.
	for _, i := range lg {
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range sm {
		prob[i] = 1
		alias[i] = i
	}
	*small, *large = sm[:0], lg[:0]
}
