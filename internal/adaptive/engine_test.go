package adaptive

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

// goldenInputs are 300 points over the 20 km region and a 1 km margin around
// it, so the clamp and the out-of-node draw of Algorithm 1 line 10 are hit.
func goldenInputs() []geo.Point {
	r := rand.New(rand.NewPCG(3, 4))
	xs := make([]geo.Point, 300)
	for i := range xs {
		xs[i] = geo.Point{X: r.Float64()*22 - 1, Y: r.Float64()*22 - 1}
	}
	return xs
}

func reportLoop(t *testing.T, m *Mechanism, xs []geo.Point) []geo.Point {
	t.Helper()
	out := make([]geo.Point, len(xs))
	for i, x := range xs {
		z, err := m.ReportCtx(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = z
	}
	return out
}

// TestGoldenOutputs pins the seeded outputs of both tree families to the
// values recorded before the k-d tree and the quadtree shared one engine:
// the Report loop in both RNG modes, a batch on a fresh mechanism (equal to
// the Report loop at the same worker count), and ReportWith drawing from one
// rng shared across the pair.
func TestGoldenOutputs(t *testing.T) {
	xs := goldenInputs()
	want := []struct {
		workers  int
		kd, quad string
	}{
		{0, "5295ab3c8fd18ac5", "fc31ba70fc6fd197"},
		{1, "5295ab3c8fd18ac5", "fc31ba70fc6fd197"},
		{4, "ddeb2ff16cfd1e64", "ef53dd8597b5a24b"},
	}
	for _, w := range want {
		for _, fam := range []struct {
			name string
			mk   func(*testing.T, int, uint64) *Mechanism
			hash string
		}{{"kd", concurrentKD, w.kd}, {"quad", concurrentQuad, w.quad}} {
			if got := hashPoints(reportLoop(t, fam.mk(t, w.workers, 23), xs)); got != fam.hash {
				t.Errorf("%s w=%d: Report loop hash %s, want %s", fam.name, w.workers, got, fam.hash)
			}
			out, err := fam.mk(t, w.workers, 23).ReportBatchCtx(context.Background(), xs)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashPoints(out); got != fam.hash {
				t.Errorf("%s w=%d: ReportBatchCtx hash %s, want the Report loop's %s", fam.name, w.workers, got, fam.hash)
			}
		}
	}

	kd, quad := concurrentKD(t, 0, 23), concurrentQuad(t, 0, 23)
	rng := rand.New(rand.NewPCG(9, 9))
	var a, b []geo.Point
	for _, x := range xs {
		z, err := kd.ReportWith(x, rng)
		if err != nil {
			t.Fatal(err)
		}
		a = append(a, z)
		if z, err = quad.ReportWith(x, rng); err != nil {
			t.Fatal(err)
		}
		b = append(b, z)
	}
	if got := hashPoints(a); got != "f71b487408a9fd7f" {
		t.Errorf("kd ReportWith hash %s, want f71b487408a9fd7f", got)
	}
	if got := hashPoints(b); got != "952eeb403eb1a4f1" {
		t.Errorf("quad ReportWith hash %s, want 952eeb403eb1a4f1", got)
	}
}

// TestReportBatchMatchesReportLoop: for both families, at several worker
// counts and batch sizes around the chunk size, consecutive batches on one
// mechanism equal a Report loop on a twin, so the query-index reservation
// and per-chunk streams line up across calls.
func TestReportBatchMatchesReportLoop(t *testing.T) {
	xs := goldenInputs()
	for _, mk := range []func(*testing.T, int, uint64) *Mechanism{concurrentKD, concurrentQuad} {
		for _, w := range []int{1, 2, 3, 8} {
			m, ref := mk(t, w, 5), mk(t, w, 5)
			for _, n := range []int{1, 63, 64, 65, 107} {
				got, err := m.ReportBatchCtx(context.Background(), xs[:n])
				if err != nil {
					t.Fatal(err)
				}
				want := reportLoop(t, ref, xs[:n])
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("w=%d n=%d: point %d = %v, Report loop %v", w, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestReportBatchCanceled: a canceled context stops both batch paths of
// both families with ctx.Err(), also when every channel is warm and no store
// lookup would see the cancel.
func TestReportBatchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mk := range []func(*testing.T, int, uint64) *Mechanism{concurrentKD, concurrentQuad} {
		for _, w := range []int{1, 4} {
			m := mk(t, w, 1)
			if err := m.PrecomputeCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
			if _, err := m.ReportBatchCtx(ctx, goldenInputs()); err != context.Canceled {
				t.Errorf("%s w=%d: err %v, want context.Canceled", m.ns, w, err)
			}
		}
	}
}

// TestReportBatchAllocsFlat: a warm Workers>1 batch allocates per batch (its
// result, chunk streams and fan-out, and a memo when the pool has none), not
// per point. A worker's store lookup after losing a memo race allocates
// nothing warm, so going from 256 to 4096 points leaves the count flat; the
// slack of 2 only absorbs noise.
func TestReportBatchAllocsFlat(t *testing.T) {
	const workers = 4
	for _, m := range []*Mechanism{concurrentKD(t, workers, 9), concurrentQuad(t, workers, 9)} {
		if err := m.PrecomputeCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		allocs := func(n int) float64 {
			r := rand.New(rand.NewPCG(3, uint64(n)))
			xs := make([]geo.Point, n)
			for i := range xs {
				xs[i] = geo.Point{X: r.Float64() * 20, Y: r.Float64() * 20}
			}
			return testing.AllocsPerRun(20, func() {
				if _, err := m.ReportBatchCtx(context.Background(), xs); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(256), allocs(4096)
		if large > small+2 {
			t.Errorf("%s: allocs per ReportBatchCtx grew with n: %.0f at n=256, %.0f at n=4096 (slack 2)",
				m.ns, small, large)
		}
		if perPoint := large / 4096; perPoint > 0.1 {
			t.Errorf("%s: %.3f allocs per point at n=4096, want <= 0.1", m.ns, perPoint)
		}
		t.Logf("%s: allocs per batch %.0f at n=256, %.0f at n=4096", m.ns, small, large)
	}
}

// TestReportAllocs guards the warm single-report path of both families: at
// Workers=0 it allocates nothing (a warm store lookup builds no solve
// closure), and at Workers=4 its pooled per-query stream keeps it at no more
// than that.
func TestReportAllocs(t *testing.T) {
	xs := goldenInputs()
	for _, mk := range []func(*testing.T, int, uint64) *Mechanism{concurrentKD, concurrentQuad} {
		allocs := make(map[int]float64)
		for _, w := range []int{0, 4} {
			m := mk(t, w, 9)
			if err := m.PrecomputeCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
			i := 0
			allocs[w] = testing.AllocsPerRun(200, func() {
				if _, err := m.ReportCtx(context.Background(), xs[i%len(xs)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
		}
		if allocs[0] != 0 || allocs[4] > allocs[0] {
			t.Errorf("%s: allocs per warm Report %.2f at Workers=0, %.2f at Workers=4; want 0 and no more",
				mk(t, 0, 9).ns, allocs[0], allocs[4])
		}
	}
}
