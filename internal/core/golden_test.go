package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"testing"

	"geoind/internal/geo"
)

// hashPoints is FNV-64a over the little-endian Float64bits of X, then Y, of
// every point.
func hashPoints(pts []geo.Point) string {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.X))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.Y))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenConfig is a height-3 MSM over a skewed prior (so the descent crosses
// two parent levels), optionally with the spanner-reduced, pruned channel
// construction.
func goldenConfig(workers int, variant bool) Config {
	cfg := concurrencyConfig(workers)
	cfg.Eps = 2
	if variant {
		cfg.SpannerStretch = 1.5
		cfg.PruneMass = 0.05
	}
	return cfg
}

// TestGoldenOutputs pins the seeded outputs to recorded hashes, so a change
// that moves both sides of a self-comparison cannot pass unnoticed: the
// ReportCtx loop in both RNG modes, a ReportBatchCtx on a fresh mechanism
// (equal to the loop at the same worker count), ReportWith and
// ReportBatchWith drawing from one caller rng, and the same over the
// spanner-reduced, pruned variant. The 300 inputs cover a 2 km margin around
// the region, so the clamp and the out-of-subdomain draw of Algorithm 1 line
// 10 are hit.
func TestGoldenOutputs(t *testing.T) {
	xs := batchInputs(300, 77)
	ctx := context.Background()
	mk := func(workers int, variant bool) *Mechanism {
		m, err := New(goldenConfig(workers, variant), 23)
		if err != nil {
			t.Fatal(err)
		}
		if m.Height() != 3 {
			t.Fatalf("height %d, want 3", m.Height())
		}
		return m
	}
	for _, c := range []struct {
		workers int
		variant bool
		want    string
	}{
		{0, false, "cd9613f7f607ab8a"},
		{1, false, "cd9613f7f607ab8a"},
		{4, false, "515fc5c1a85bc28f"},
		{0, true, "1e2d76b611253ec6"},
		{4, true, "93bdef4af0c1caae"},
	} {
		m := mk(c.workers, c.variant)
		loop := make([]geo.Point, len(xs))
		for i, x := range xs {
			z, err := m.ReportCtx(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			loop[i] = z
		}
		if got := hashPoints(loop); got != c.want {
			t.Errorf("w=%d variant=%v: ReportCtx loop hash %s, want %s", c.workers, c.variant, got, c.want)
		}
		batch, err := mk(c.workers, c.variant).ReportBatchCtx(ctx, xs)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashPoints(batch); got != c.want {
			t.Errorf("w=%d variant=%v: ReportBatchCtx hash %s, want the loop's %s", c.workers, c.variant, got, c.want)
		}
	}

	for _, c := range []struct {
		variant         bool
		with, batchWith string
	}{
		{false, "c5f419a72675698b", "ecc5eb8d6f6b31d1"},
		{true, "a9bbd7e23887c8cb", "17c9f62c1d3dab11"},
	} {
		m := mk(0, c.variant)
		rng := rand.New(rand.NewPCG(9, 9))
		with := make([]geo.Point, len(xs))
		for i, x := range xs {
			z, err := m.ReportWith(x, rng)
			if err != nil {
				t.Fatal(err)
			}
			with[i] = z
		}
		if got := hashPoints(with); got != c.with {
			t.Errorf("variant=%v: ReportWith hash %s, want %s", c.variant, got, c.with)
		}
		batch, err := m.ReportBatchWith(xs, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashPoints(batch); got != c.batchWith {
			t.Errorf("variant=%v: ReportBatchWith hash %s, want %s", c.variant, got, c.batchWith)
		}
	}
}

// TestStoreKeysUnchanged pins the channel-store key of every channel of a
// small index, exact and variant: persisted -cache-dir snapshots and fabric
// peers address channels by these keys, so a change here leaves every cache
// cold. The hash is FNV-64a over each key's fields in index order.
func TestStoreKeysUnchanged(t *testing.T) {
	for _, c := range []struct {
		variant bool
		keys    int
		want    string
	}{
		{false, 91, "b051855350050cc0"},
		{true, 91, "f23fc74fbf2104f4"},
	} {
		m, err := New(goldenConfig(0, c.variant), 23)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		keys := 0
		for level := 0; level < m.Height(); level++ {
			for cell := 0; cell < m.levelCells(level); cell++ {
				k := m.storeKey(level, cell)
				fmt.Fprintf(h, "%s|%d|%d|%x|%d|%x|%x\x00", k.Namespace, k.Level, k.Cell, k.EpsBits, k.Metric, k.PriorHash, k.Variant)
				keys++
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); keys != c.keys || got != c.want {
			t.Errorf("variant=%v: %d keys hashing to %s, want %d hashing to %s", c.variant, keys, got, c.keys, c.want)
		}
	}
}
