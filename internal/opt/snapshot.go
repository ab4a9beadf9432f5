package opt

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"geoind/internal/geo"
	"geoind/internal/grid"
)

// Snapshot payload encoding for solved channels (the bytes framed by
// internal/channel's versioned, checksummed snapshot files — format v2).
// The encoding is little-endian and fully self-describing: a one-byte kind
// tag, the grid geometry (or candidate set), the solve parameters, and the
// matrix in its native representation:
//
//   - Dense kinds store the length-prefixed row-major K matrix only. The
//     cumulative-row companion that format v1 duplicated on disk (doubling
//     every snapshot) is rebuilt at decode time by the same prefix-sum code
//     the solver uses — float64 addition is deterministic, so the rebuilt
//     rows are bit-identical to the solved channel's and sampling from a
//     loaded channel matches the original draw for draw.
//   - Compact kinds store the pruned representation: prune parameters
//     (pruneMass, beta), the per-row uniform background levels, per-row kept
//     counts, and the flat (index, prob) pairs. Decode revalidates geometry,
//     row mass, CSR structure, the beta floor — and re-runs the full O(n^3)
//     GeoInd verifier on the materialized matrix, so no byte pattern can
//     smuggle an ε-violating channel past the loader.
//
// Malformed bytes (even ones that pass the outer frame checksum) are
// rejected rather than served; the store treats that as a miss and re-solves.

const (
	snapKindGrid          = 1 // dense *Channel over a regular grid
	snapKindPoints        = 2 // dense *PointChannel over a candidate set
	snapKindGridCompact   = 3 // pruned *Channel
	snapKindPointsCompact = 4 // pruned *PointChannel
	snapKindGridLocal     = 5 // locally relevant *Channel (compact + domain)
)

// rowSumTol bounds the acceptable deviation of a decoded row sum from 1.
// Freshly built channels are renormalized exactly, so any larger deviation
// indicates foreign or damaged bytes.
const rowSumTol = 1e-6

// SnapshotCodec implements internal/channel's Codec for the two channel
// types this repository caches: *Channel (grid mechanisms: MSM, quadtree)
// and *PointChannel (the adaptive k-d index), in both their dense and
// compact (pruned) representations.
type SnapshotCodec struct{}

// SnapshotCost is a channel.Options.CostFn measuring resident bytes of the
// sampling-critical payload of a cached channel: K plus cumulative rows and
// their guide tables for dense channels, the CSR arrays plus background rows
// for compact ones (lazily built alias tables are excluded — they are
// derived state, rebuilt on demand after an eviction). Unknown values cost 1
// so a misconfigured store still bounds entry count.
func SnapshotCost(v any) int64 {
	switch c := v.(type) {
	case *Channel:
		if c.sparse != nil {
			return c.sparse.costBytes()
		}
		return int64(len(c.K))*8 + c.cum.costBytes()
	case *PointChannel:
		if c.sparse != nil {
			return c.sparse.costBytes()
		}
		return int64(len(c.K))*8 + c.cum.costBytes()
	default:
		return 1
	}
}

// appendGridGeom writes the grid bounds and granularity.
func appendGridGeom(buf []byte, g *grid.Grid) []byte {
	b := g.Bounds()
	buf = appendFloat(buf, b.MinX)
	buf = appendFloat(buf, b.MinY)
	buf = appendFloat(buf, b.MaxX)
	buf = appendFloat(buf, b.MaxY)
	return binary.LittleEndian.AppendUint32(buf, uint32(g.Granularity()))
}

// appendSparse writes the compact matrix payload: pruneMass, beta, the
// per-row background levels, per-row kept counts, then the flat index and
// value arrays.
func appendSparse(buf []byte, s *sparseRows) []byte {
	buf = appendFloat(buf, s.pruneMass)
	buf = appendFloat(buf, s.beta)
	buf = appendFloats(buf, s.bg)
	for x := 0; x < s.n; x++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.rowStart[x+1]-s.rowStart[x]))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.idx)))
	for _, i := range s.idx {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
	}
	buf = appendFloats(buf, s.val)
	return buf
}

// Encode serializes a *Channel or *PointChannel (dense or compact).
func (SnapshotCodec) Encode(v any) ([]byte, error) {
	switch c := v.(type) {
	case *Channel:
		var buf []byte
		switch {
		case c.localDomain != nil:
			buf = make([]byte, 0, 1+4*8+4+8+8+8+4+4+4+len(c.localDomain)*4+2*8+3*8+c.sparse.n*12+c.sparse.entries()*12)
			buf = append(buf, snapKindGridLocal)
		case c.sparse != nil:
			buf = make([]byte, 0, 1+4*8+4+8+8+8+4+4+2*8+3*8+c.sparse.n*12+c.sparse.entries()*12)
			buf = append(buf, snapKindGridCompact)
		default:
			buf = make([]byte, 0, 1+4*8+4+8+8+8+4+4+8+len(c.K)*8)
			buf = append(buf, snapKindGrid)
		}
		buf = appendGridGeom(buf, c.Grid)
		buf = appendFloat(buf, c.Eps)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(c.Metric)))
		buf = appendFloat(buf, c.ExpectedLoss)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Iters))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.PairFamilies))
		switch {
		case c.localDomain != nil:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.localDomain)))
			for _, d := range c.localDomain {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
			}
			buf = appendSparse(buf, c.sparse)
		case c.sparse != nil:
			buf = appendSparse(buf, c.sparse)
		default:
			buf = appendFloats(buf, c.K)
		}
		return buf, nil
	case *PointChannel:
		var buf []byte
		if c.sparse != nil {
			buf = make([]byte, 0, 1+4+len(c.Centers)*16+8+8+8+4+2*8+3*8+c.sparse.n*12+c.sparse.entries()*12)
			buf = append(buf, snapKindPointsCompact)
		} else {
			buf = make([]byte, 0, 1+4+len(c.Centers)*16+8+8+8+4+8+len(c.K)*8)
			buf = append(buf, snapKindPoints)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Centers)))
		for _, p := range c.Centers {
			buf = appendFloat(buf, p.X)
			buf = appendFloat(buf, p.Y)
		}
		buf = appendFloat(buf, c.Eps)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(c.Metric)))
		buf = appendFloat(buf, c.ExpectedLoss)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Iters))
		if c.sparse != nil {
			buf = appendSparse(buf, c.sparse)
		} else {
			buf = appendFloats(buf, c.K)
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("opt: cannot snapshot %T", v)
	}
}

// Decode parses and validates a snapshot payload, returning a *Channel or
// *PointChannel ready to sample. Dense payloads get their cumulative rows
// rebuilt (bit-exact with the solved channel by float determinism); compact
// payloads are structurally validated and then re-verified against the full
// GeoInd constraint set. ctx is polled before the parse and again before the
// expensive validation passes, so a caller that has already given up does
// not pay for revalidating a large matrix it will discard.
func (SnapshotCodec) Decode(ctx context.Context, data []byte) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &snapReader{data: data}
	kind := r.byte()
	switch kind {
	case snapKindGrid, snapKindGridCompact, snapKindGridLocal:
		return decodeGrid(ctx, r, kind)
	case snapKindPoints, snapKindPointsCompact:
		return decodePoints(ctx, r, kind == snapKindPointsCompact)
	default:
		return nil, fmt.Errorf("opt: unknown snapshot kind %d", kind)
	}
}

func decodeGrid(ctx context.Context, r *snapReader, kind byte) (*Channel, error) {
	bounds := geo.Rect{MinX: r.float(), MinY: r.float(), MaxX: r.float(), MaxY: r.float()}
	gran := int(r.uint32())
	eps := r.float()
	metric := geo.Metric(int64(r.uint64()))
	loss := r.float()
	iters := int(r.uint32())
	pairFamilies := int(r.uint32())
	if r.err != nil {
		return nil, r.err
	}
	for _, f := range []float64{bounds.MinX, bounds.MinY, bounds.MaxX, bounds.MaxY} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("opt: non-finite grid bounds in snapshot")
		}
	}
	g, err := grid.New(bounds, gran)
	if err != nil {
		return nil, fmt.Errorf("opt: snapshot geometry: %w", err)
	}
	if iters < 0 || pairFamilies < 0 {
		return nil, fmt.Errorf("opt: negative solve metadata in snapshot")
	}
	n := g.NumCells()
	ch := &Channel{
		Grid: g, Eps: eps, Metric: metric,
		ExpectedLoss: loss, Iters: iters, PairFamilies: pairFamilies,
	}
	if kind == snapKindGridLocal {
		// The relevance domain travels with the payload; the sparse matrix
		// that follows is the standard compact encoding of all n rows.
		m := int(r.uint32())
		if r.err == nil && (m < 1 || m > n) {
			return nil, fmt.Errorf("opt: snapshot local domain size %d out of range", m)
		}
		domain := make([]int32, 0, min(m, 1<<16))
		prev := int32(-1)
		for i := 0; i < m && r.err == nil; i++ {
			d := r.uint32()
			if r.err != nil {
				break
			}
			if d >= uint32(n) || int32(d) <= prev {
				return nil, fmt.Errorf("opt: snapshot local domain not a sorted cell subset")
			}
			prev = int32(d)
			domain = append(domain, int32(d))
		}
		s, err := decodeSparse(ctx, r, n, eps, metric, loss)
		if err != nil {
			return nil, err
		}
		if err := validateLocalRows(g, s, domain); err != nil {
			return nil, err
		}
		ch.localDomain = domain
		ch.initSparse(s)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Same contract as compact payloads, restricted to the domain the
		// channel was solved over — the guarantee BuildLocal gates on.
		if ex := verifyLocalSparse(g, eps, s, domain); ex > pruneVerifyTol {
			return nil, fmt.Errorf("opt: local snapshot violates GeoInd on its domain (excess %.3g)", ex)
		}
		return ch, nil
	}
	if kind == snapKindGridCompact {
		s, err := decodeSparse(ctx, r, n, eps, metric, loss)
		if err != nil {
			return nil, err
		}
		ch.initSparse(s)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The ε constraint is part of the format contract for compact
		// payloads: a foreign writer's pruning is never trusted blindly.
		if ex := VerifyGeoInd(g, eps, s.dense()); ex > pruneVerifyTol {
			return nil, fmt.Errorf("opt: compact snapshot violates GeoInd (excess %.3g)", ex)
		}
		return ch, nil
	}
	k := r.floats()
	if err := finishDense(ctx, r, n, eps, metric, loss, k); err != nil {
		return nil, err
	}
	ch.K = k
	ch.buildCum()
	return ch, nil
}

func decodePoints(ctx context.Context, r *snapReader, compact bool) (*PointChannel, error) {
	n := int(r.uint32())
	if r.err == nil && (n < 1 || n > grid.MaxCellsPerSide*grid.MaxCellsPerSide) {
		return nil, fmt.Errorf("opt: snapshot candidate count %d out of range", n)
	}
	centers := make([]geo.Point, 0, min(n, 1<<16))
	for i := 0; i < n && r.err == nil; i++ {
		centers = append(centers, geo.Point{X: r.float(), Y: r.float()})
	}
	eps := r.float()
	metric := geo.Metric(int64(r.uint64()))
	loss := r.float()
	iters := int(r.uint32())
	if r.err != nil {
		return nil, r.err
	}
	for _, p := range centers {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("opt: non-finite candidate location in snapshot")
		}
	}
	if iters < 0 {
		return nil, fmt.Errorf("opt: negative solve metadata in snapshot")
	}
	ch := &PointChannel{
		Centers: centers, Eps: eps, Metric: metric,
		ExpectedLoss: loss, Iters: iters,
	}
	if compact {
		s, err := decodeSparse(ctx, r, n, eps, metric, loss)
		if err != nil {
			return nil, err
		}
		ch.initSparse(s)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ex := VerifyGeoIndPoints(centers, eps, s.dense()); ex > pruneVerifyTol {
			return nil, fmt.Errorf("opt: compact snapshot violates GeoInd (excess %.3g)", ex)
		}
		return ch, nil
	}
	k := r.floats()
	if err := finishDense(ctx, r, n, eps, metric, loss, k); err != nil {
		return nil, err
	}
	ch.K = k
	ch.buildCum()
	return ch, nil
}

// finishDense runs the trailing-byte check and full dense-matrix validation.
func finishDense(ctx context.Context, r *snapReader, n int, eps float64, metric geo.Metric, loss float64, k []float64) error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("opt: %d trailing snapshot bytes", r.remaining())
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return validateChannel(n, eps, metric, loss, k)
}

// decodeSparse parses and structurally validates a compact matrix payload.
// The GeoInd re-verification runs in the caller (it needs the geometry).
func decodeSparse(ctx context.Context, r *snapReader, n int, eps float64, metric geo.Metric, loss float64) (*sparseRows, error) {
	pruneMass := r.float()
	beta := r.float()
	bg := r.floats()
	counts := make([]uint32, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		counts = append(counts, r.uint32())
	}
	idx := r.uint32s()
	val := r.floats()
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("opt: %d trailing snapshot bytes", r.remaining())
	}
	if err := validateScalars(eps, metric, loss); err != nil {
		return nil, err
	}
	if !(pruneMass > 0) || pruneMass >= MaxPruneMass {
		return nil, fmt.Errorf("opt: snapshot prune mass %g out of range", pruneMass)
	}
	if !(beta > 0) || beta >= MaxPruneMass {
		return nil, fmt.Errorf("opt: snapshot background weight %g out of range", beta)
	}
	if len(bg) != n {
		return nil, fmt.Errorf("opt: snapshot has %d background rows, want %d", len(bg), n)
	}
	if len(idx) != len(val) {
		return nil, fmt.Errorf("opt: snapshot index/value length mismatch (%d vs %d)", len(idx), len(val))
	}
	s := &sparseRows{
		n: n, beta: beta, pruneMass: pruneMass,
		rowStart: make([]int32, n+1),
		idx:      make([]int32, len(idx)),
		val:      val,
		bg:       bg,
	}
	total := 0
	for x, c := range counts {
		if int(c) > n {
			return nil, fmt.Errorf("opt: snapshot row %d keeps %d of %d entries", x, c, n)
		}
		total += int(c)
		if total > len(idx) {
			return nil, fmt.Errorf("opt: snapshot row counts exceed %d stored entries", len(idx))
		}
		s.rowStart[x+1] = int32(total)
	}
	if total != len(idx) {
		return nil, fmt.Errorf("opt: snapshot row counts cover %d of %d entries", total, len(idx))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bgFloor := beta / float64(n) * (1 - 1e-9)
	for x := 0; x < n; x++ {
		if math.IsNaN(bg[x]) || math.IsInf(bg[x], 0) || bg[x] < bgFloor {
			return nil, fmt.Errorf("opt: snapshot background level %g below floor at row %d", bg[x], x)
		}
		sum := float64(n) * bg[x]
		prev := int32(-1)
		for j := s.rowStart[x]; j < s.rowStart[x+1]; j++ {
			c := idx[j]
			if c >= uint32(n) || int32(c) <= prev {
				return nil, fmt.Errorf("opt: snapshot row %d has invalid column sequence", x)
			}
			prev = int32(c)
			s.idx[j] = int32(c)
			v := val[j]
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("opt: snapshot value %g out of range at entry %d", v, j)
			}
			sum += v
		}
		if math.Abs(sum-1) > rowSumTol {
			return nil, fmt.Errorf("opt: snapshot row %d sums to %g", x, sum)
		}
	}
	s.finish()
	return s, nil
}

// validateLocalRows enforces the structural contract of local payloads:
// every out-of-domain row is an entry-for-entry copy of its snap
// representative's row, where the representative mapping is re-derived
// from the grid geometry and the domain (a pure function, so encoder and
// decoder agree). Anything else is a foreign or damaged payload.
func validateLocalRows(g *grid.Grid, s *sparseRows, domain []int32) error {
	rep := snapReps(g, domain)
	for x := 0; x < s.n; x++ {
		r := int(rep[x])
		if r == x {
			continue
		}
		xs, xe := s.rowStart[x], s.rowStart[x+1]
		rs, re := s.rowStart[r], s.rowStart[r+1]
		if xe-xs != re-rs || s.bg[x] != s.bg[r] {
			return fmt.Errorf("opt: snapshot row %d is not a copy of its representative %d", x, r)
		}
		for j := int32(0); j < xe-xs; j++ {
			if s.idx[xs+j] != s.idx[rs+j] || s.val[xs+j] != s.val[rs+j] {
				return fmt.Errorf("opt: snapshot row %d is not a copy of its representative %d", x, r)
			}
		}
	}
	return nil
}

// validateScalars checks the solve parameters shared by every payload kind.
func validateScalars(eps float64, metric geo.Metric, loss float64) error {
	if !(eps > 0) || math.IsInf(eps, 0) {
		return fmt.Errorf("opt: snapshot eps %g out of range", eps)
	}
	if !metric.Valid() {
		return fmt.Errorf("opt: snapshot has unknown metric %v", metric)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) || loss < 0 {
		return fmt.Errorf("opt: snapshot expected loss %g out of range", loss)
	}
	return nil
}

// validateChannel checks the invariants every freshly built dense channel
// holds: positive finite eps, known metric, finite nonnegative loss, and an
// n x n matrix of finite nonnegative entries with row sums within rowSumTol
// of 1. (Format v1 also stored the cumulative rows and required bit-exact
// agreement with a recomputation; v2 rebuilds them from K with the same
// prefix-sum code instead, which guarantees agreement by construction.)
func validateChannel(n int, eps float64, metric geo.Metric, loss float64, k []float64) error {
	if err := validateScalars(eps, metric, loss); err != nil {
		return err
	}
	if len(k) != n*n {
		return fmt.Errorf("opt: snapshot K has %d entries, want %d", len(k), n*n)
	}
	for i, v := range k {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("opt: snapshot K[%d] = %g out of range", i, v)
		}
	}
	for x := 0; x < n; x++ {
		s := 0.0
		for z := 0; z < n; z++ {
			s += k[x*n+z]
		}
		if math.Abs(s-1) > rowSumTol {
			return fmt.Errorf("opt: snapshot row %d sums to %g", x, s)
		}
	}
	return nil
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func appendFloats(buf []byte, fs []float64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(fs)))
	for _, f := range fs {
		buf = appendFloat(buf, f)
	}
	return buf
}

// snapReader is a bounds-checked little-endian cursor. The first short read
// latches an error; subsequent reads return zero values, so decode paths can
// read a full record and check err once.
type snapReader struct {
	data []byte
	off  int
	err  error
}

func (r *snapReader) remaining() int { return len(r.data) - r.off }

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.remaining() < n {
		r.err = fmt.Errorf("opt: snapshot truncated at offset %d", r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapReader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *snapReader) uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *snapReader) float() float64 { return math.Float64frombits(r.uint64()) }

func (r *snapReader) floats() []float64 {
	n := r.uint64()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining())/8 {
		r.err = fmt.Errorf("opt: snapshot float slice length %d exceeds remaining bytes", n)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.float()
	}
	return out
}

func (r *snapReader) uint32s() []uint32 {
	n := r.uint64()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining())/4 {
		r.err = fmt.Errorf("opt: snapshot uint32 slice length %d exceeds remaining bytes", n)
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.uint32()
	}
	return out
}
