package opt

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"geoind/internal/geo"
	"geoind/internal/grid"
)

func snapshotTestChannel(t *testing.T) *Channel {
	t.Helper()
	g, err := grid.New(geo.Rect{MaxX: 10, MaxY: 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	pw := make([]float64, g.NumCells())
	for i := range pw {
		pw[i] = float64(i + 1)
	}
	ch, err := Build(0.7, g, pw, geo.Euclidean, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestSnapshotCodecChannelRoundTrip(t *testing.T) {
	ch := snapshotTestChannel(t)
	codec := SnapshotCodec{}
	data, err := codec.Encode(ch)
	if err != nil {
		t.Fatal(err)
	}
	v, err := codec.Decode(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(*Channel)
	if !ok {
		t.Fatalf("decoded %T", v)
	}

	if got.Eps != ch.Eps || got.Metric != ch.Metric || got.ExpectedLoss != ch.ExpectedLoss ||
		got.Iters != ch.Iters || got.PairFamilies != ch.PairFamilies {
		t.Fatalf("scalar fields differ: %+v vs %+v", got, ch)
	}
	if got.Grid.Bounds() != ch.Grid.Bounds() || got.Grid.NumCells() != ch.Grid.NumCells() {
		t.Fatal("grid geometry differs")
	}
	for i := range ch.K {
		if got.K[i] != ch.K[i] {
			t.Fatalf("K[%d]: %v vs %v (not bit-equal)", i, got.K[i], ch.K[i])
		}
	}
	for i := range ch.cum.rows {
		if got.cum.rows[i] != ch.cum.rows[i] {
			t.Fatalf("cum[%d]: %v vs %v (not bit-equal)", i, got.cum.rows[i], ch.cum.rows[i])
		}
	}

	// Bit-equal cum rows mean the sampled index sequence is identical for the
	// same RNG stream — the warm-restart acceptance criterion.
	rngA := rand.New(rand.NewPCG(11, 22))
	rngB := rand.New(rand.NewPCG(11, 22))
	n := ch.N()
	for i := 0; i < 500; i++ {
		x := i % n
		if a, b := ch.SampleIndex(x, rngA), got.SampleIndex(x, rngB); a != b {
			t.Fatalf("draw %d: original sampled %d, decoded sampled %d", i, a, b)
		}
	}
}

func TestSnapshotCodecPointChannelRoundTrip(t *testing.T) {
	centers := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0.5}, {X: 2.5, Y: 3}, {X: 4, Y: 1}}
	pw := []float64{1, 2, 3, 4}
	ch, err := BuildPoints(0.9, centers, pw, geo.Euclidean, nil)
	if err != nil {
		t.Fatal(err)
	}
	codec := SnapshotCodec{}
	data, err := codec.Encode(ch)
	if err != nil {
		t.Fatal(err)
	}
	v, err := codec.Decode(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(*PointChannel)
	if !ok {
		t.Fatalf("decoded %T", v)
	}
	if got.Eps != ch.Eps || got.Metric != ch.Metric || got.ExpectedLoss != ch.ExpectedLoss || got.Iters != ch.Iters {
		t.Fatal("scalar fields differ")
	}
	for i := range ch.Centers {
		if got.Centers[i] != ch.Centers[i] {
			t.Fatalf("center %d differs", i)
		}
	}
	for i := range ch.K {
		if got.K[i] != ch.K[i] || got.cum.rows[i] != ch.cum.rows[i] {
			t.Fatalf("matrix entry %d not bit-equal", i)
		}
	}
	rngA := rand.New(rand.NewPCG(5, 6))
	rngB := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 200; i++ {
		x := i % len(centers)
		if a, b := ch.SampleIndex(x, rngA), got.SampleIndex(x, rngB); a != b {
			t.Fatalf("draw %d: %d vs %d", i, a, b)
		}
	}
}

func TestSnapshotCodecRejectsGarbage(t *testing.T) {
	codec := SnapshotCodec{}
	ch := snapshotTestChannel(t)
	data, err := codec.Encode(ch)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":        nil,
		"unknown-kind": {0xee, 1, 2, 3},
		"truncated":    data[:len(data)/2],
		"trailing":     append(append([]byte(nil), data...), 0),
	}
	for name, payload := range cases {
		if _, err := codec.Decode(context.Background(), payload); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestSnapshotCodecRejectsTamperedMatrix(t *testing.T) {
	codec := SnapshotCodec{}
	ch := snapshotTestChannel(t)
	data, err := codec.Encode(ch)
	if err != nil {
		t.Fatal(err)
	}

	// Flip an exponent bit of the final K entry: the row no longer sums to
	// (approximately) 1 and the decoder's row-sum check must notice.
	tampered := append([]byte(nil), data...)
	tampered[len(tampered)-1] ^= 0x40
	if _, err := codec.Decode(context.Background(), tampered); err == nil {
		t.Fatal("accepted a K row that does not sum to 1")
	}

	// A NaN in K must be rejected by the finiteness check. K starts right
	// after the fixed header; overwrite its first entry.
	nan := append([]byte(nil), data...)
	idx := snapshotKOffset(t, codec, ch)
	putFloatLE(nan[idx:], math.NaN())
	if _, err := codec.Decode(context.Background(), nan); err == nil {
		t.Fatal("accepted NaN in K")
	}
}

// snapshotKOffset locates the first K entry in an encoded grid snapshot by
// re-encoding with a sentinel value and diffing.
func snapshotKOffset(t *testing.T, codec SnapshotCodec, ch *Channel) int {
	t.Helper()
	orig, err := codec.Encode(ch)
	if err != nil {
		t.Fatal(err)
	}
	mod := &Channel{
		Grid: ch.Grid, Eps: ch.Eps, Metric: ch.Metric,
		ExpectedLoss: ch.ExpectedLoss, Iters: ch.Iters, PairFamilies: ch.PairFamilies,
		K: append([]float64(nil), ch.K...),
	}
	mod.K[0] = math.Float64frombits(math.Float64bits(ch.K[0]) ^ 1)
	data, err := codec.Encode(mod)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if orig[i] != data[i] {
			// The sentinel flips the float's lowest mantissa bit, so the first
			// differing byte is the little-endian float's first byte.
			return i
		}
	}
	t.Fatal("sentinel not found")
	return 0
}

func putFloatLE(b []byte, f float64) {
	bits := math.Float64bits(f)
	for i := 0; i < 8; i++ {
		b[i] = byte(bits >> (8 * i))
	}
}

func TestSnapshotCost(t *testing.T) {
	ch := snapshotTestChannel(t)
	n := int64(ch.N())
	want := (n*n+n*n+n)*8 + n*n*4 // K, cumulative rows, row scales; guide tables
	if got := SnapshotCost(ch); got != want {
		t.Fatalf("SnapshotCost(Channel) = %d, want %d", got, want)
	}
	if got := SnapshotCost("not a channel"); got != 1 {
		t.Fatalf("SnapshotCost(foreign) = %d, want 1", got)
	}
}

func snapshotLocalChannel(t *testing.T) *Channel {
	t.Helper()
	g, err := grid.New(geo.NewSquare(8), 6)
	if err != nil {
		t.Fatal(err)
	}
	// Two-cluster prior so the relevance domain is a proper subset and
	// several rows are snapped copies.
	pw := make([]float64, g.NumCells())
	pw[g.Index(1, 1)] = 5
	pw[g.Index(1, 2)] = 3
	pw[g.Index(4, 4)] = 4
	ch, err := BuildLocal(0.8, g, pw, geo.Euclidean, 1.8, &LocalOptions{MassFloor: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ch.LocalDomain()); n == 0 || n >= g.NumCells() {
		t.Fatalf("test channel domain %d of %d cells is not a proper subset", n, g.NumCells())
	}
	return ch
}

func TestSnapshotCodecLocalRoundTrip(t *testing.T) {
	ch := snapshotLocalChannel(t)
	codec := SnapshotCodec{}
	data, err := codec.Encode(ch)
	if err != nil {
		t.Fatal(err)
	}
	v, err := codec.Decode(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(*Channel)
	if !ok {
		t.Fatalf("decoded %T", v)
	}
	if !got.IsLocal() || !got.IsCompact() {
		t.Fatal("decoded channel lost its local/compact marking")
	}
	da, db := ch.LocalDomain(), got.LocalDomain()
	if len(da) != len(db) {
		t.Fatalf("domain sizes differ: %d vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("domain differs at %d", i)
		}
	}
	if got.Eps != ch.Eps || got.Metric != ch.Metric || got.ExpectedLoss != ch.ExpectedLoss ||
		got.Iters != ch.Iters || got.PairFamilies != ch.PairFamilies {
		t.Fatal("scalar fields differ")
	}
	n := ch.N()
	for x := 0; x < n; x++ {
		rx, ry := ch.Row(x), got.Row(x)
		for z := 0; z < n; z++ {
			if rx[z] != ry[z] {
				t.Fatalf("row %d col %d not bit-equal", x, z)
			}
		}
	}
	// Bit-equal sparse rows mean identical draw streams after a reload.
	rngA := rand.New(rand.NewPCG(7, 9))
	rngB := rand.New(rand.NewPCG(7, 9))
	for i := 0; i < 500; i++ {
		x := i % n
		if a, b := ch.SampleIndex(x, rngA), got.SampleIndex(x, rngB); a != b {
			t.Fatalf("draw %d: %d vs %d", i, a, b)
		}
	}
	// Re-encoding the decoded channel must be a fixed point.
	again, err := codec.Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("re-encoded local snapshot differs from original bytes")
	}
}

func TestSnapshotCodecLocalRejectsTampering(t *testing.T) {
	ch := snapshotLocalChannel(t)
	codec := SnapshotCodec{}
	data, err := codec.Encode(ch)
	if err != nil {
		t.Fatal(err)
	}

	// The domain list starts right after the fixed grid header (kind byte +
	// 4 bounds floats + granularity + eps + metric + loss + iters +
	// pairFamilies) with a uint32 count.
	domainOff := 1 + 4*8 + 4 + 8 + 8 + 8 + 4 + 4

	grow := append([]byte(nil), data...)
	grow[domainOff] = byte(len(ch.LocalDomain()) + 1) // count no longer matches list
	if _, err := codec.Decode(context.Background(), grow); err == nil {
		t.Error("accepted inflated domain count")
	}

	swap := append([]byte(nil), data...)
	// Overwrite the first domain entry with the second: no longer strictly
	// increasing.
	copy(swap[domainOff+4:domainOff+8], data[domainOff+8:domainOff+12])
	if _, err := codec.Decode(context.Background(), swap); err == nil {
		t.Error("accepted unsorted domain list")
	}

	// Flip a mantissa bit of the last stored value: either the snapped-copy
	// check, the row-sum check or the restricted verifier must reject it.
	flip := append([]byte(nil), data...)
	flip[len(flip)-1] ^= 0x40
	if _, err := codec.Decode(context.Background(), flip); err == nil {
		t.Error("accepted tampered matrix value")
	}
}

func TestSnapshotCostLocal(t *testing.T) {
	ch := snapshotLocalChannel(t)
	if got, want := SnapshotCost(ch), ch.sparse.costBytes(); got != want {
		t.Fatalf("SnapshotCost(local) = %d, want %d", got, want)
	}
	dense := snapshotTestChannel(t)
	if SnapshotCost(ch) >= SnapshotCost(dense)*int64(ch.N()*ch.N())/int64(dense.N()*dense.N()) {
		t.Log("local channel not smaller per cell than dense (tiny grid, informational)")
	}
}
