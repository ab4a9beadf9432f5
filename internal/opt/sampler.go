package opt

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
)

// Warm-path sampling is abstracted behind Sampler so the serving layers can
// choose their speed/​memory point without touching the channel math:
//
//   - SamplerCum is the historical per-row cumulative search, located
//     through a per-row guide table (O(1) expected per draw, the same index
//     as the binary search). It consumes exactly one rng.Float64() per draw
//     in the exact sequence the pre-refactor SampleIndex did, so it is the
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
	// SamplerCum is the guided cumulative-row search (reference/oracle).
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

// Stream is a reusable caller-owned generator for Sampler draws. A PCG
// re-seeded in place draws exactly what a fresh rand.NewPCG would, and
// rand.Rand keeps no state of its own, so one Stream serves query after query
// without allocating. The zero value is ready to Seed. Single queries borrow
// one with GetStream and hand it back with PutStream once its generator is no
// longer used; batches keep one per chunk of points in a slice.
type Stream struct {
	pcg rand.PCG
	rng rand.Rand
}

var streams = sync.Pool{New: func() any { return new(Stream) }}

// GetStream borrows a Stream from the pool.
func GetStream() *Stream { return streams.Get().(*Stream) }

// PutStream returns s to the pool.
func PutStream(s *Stream) { streams.Put(s) }

// Seed re-seeds s to the PCG stream (seed, seq) and returns its generator,
// which then draws what rand.New(rand.NewPCG(seed, seq)) would.
func (s *Stream) Seed(seed, seq uint64) *rand.Rand {
	s.pcg.Seed(seed, seq)
	s.rng = *rand.New(&s.pcg)
	return &s.rng
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

// guideRow fills guide (one entry per row entry) with the guide table of a
// cumulative row and returns the row's scale s = n/last: guide[b] is the
// smallest i with int(row[i]*s) >= b, or n-1 when there is none. It returns
// 0, leaving guide unused, unless the row is nondecreasing from a
// nonnegative first entry to a positive finite last one with a finite
// scale; such rows keep the binary search.
func guideRow(row []float64, guide []int32) float64 {
	n := len(row)
	last := row[n-1]
	s := float64(n) / last
	if !(row[0] >= 0) || !(last > 0) || math.IsInf(last, 1) || math.IsInf(s, 1) {
		return 0
	}
	for i := 1; i < n; i++ {
		if !(row[i] >= row[i-1]) {
			return 0
		}
	}
	i := 0
	for b := range guide {
		for i < n-1 && int(row[i]*s) < b {
			i++
		}
		guide[b] = int32(i)
	}
	return s
}

// searchCumGuided is searchCum through a row's guide table and scale
// (guideRow; scale 0 falls back to the binary search). Multiplying by s > 0
// and truncating are both monotone, so for the answer j of searchCum,
// row[j] >= u gives int(row[j]*s) >= int(u*s): guide[int(u*s)] <= j, and the
// upward scan stops exactly at j, or at n-1 when no entry reaches u. Buckets
// are last/n wide, so the scan expects about one step. The bucket is
// clamped onto [0, n-1] (a NaN u starts at 0 and scans to n-1, as
// searchCum ends there too).
func searchCumGuided(row []float64, guide []int32, s, u float64) int {
	if s == 0 {
		return searchCum(row, u)
	}
	n := len(row)
	b := 0
	if v := u * s; v >= float64(n-1) {
		b = n - 1
	} else if v > 0 {
		b = int(v)
	}
	i := int(guide[b])
	for i < n-1 && !(row[i] >= u) {
		i++
	}
	return i
}

// cumSampler is the reference Sampler over dense cumulative rows. A draw
// scales one rng.Float64() by the row's final entry (≈1), which keeps the
// draw stream bit-identical to the historical code for any row whose sum
// deviates from 1 in the last ulp, and locates it through the row's guide
// table: the index searchCum would return, in O(1) expected steps.
type cumSampler struct {
	n     int
	rows  []float64 // n*n row-wise prefix sums of K
	scale []float64 // per row: guideRow's scale, 0 for a binary-search row
	guide []int32   // n*n: one guide table per row
}

// newCumSampler builds the cumulative rows of the dense n x n matrix k and
// their guide tables.
func newCumSampler(n int, k []float64) *cumSampler {
	s := &cumSampler{n: n, rows: prefixSumRows(n, k), scale: make([]float64, n), guide: make([]int32, n*n)}
	for x := range n {
		s.scale[x] = guideRow(s.rows[x*n:(x+1)*n], s.guide[x*n:(x+1)*n])
	}
	return s
}

func (s *cumSampler) Sample(x int, rng *rand.Rand) int {
	row := s.rows[x*s.n : (x+1)*s.n]
	return searchCumGuided(row, s.guide[x*s.n:(x+1)*s.n], s.scale[x], rng.Float64()*row[s.n-1])
}

// costBytes is the resident size of the rows, scales and guide tables.
func (s *cumSampler) costBytes() int64 {
	return int64(len(s.rows)+len(s.scale))*8 + int64(len(s.guide))*4
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
