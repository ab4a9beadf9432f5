package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"geoind/internal/channel"
	"geoind/internal/geo"
	"geoind/internal/opt"
)

// batchSizes straddle the pooled descent's 64-point chunk boundaries: a
// single point, a pair, one point short of a chunk, exactly one chunk, one
// past it, and the same around a 1k batch.
var batchSizes = []int{1, 2, 63, 64, 65, 1024, 1025}

// batchInputs draws n locations over a box slightly larger than the region,
// so some inputs exercise the clamp.
func batchInputs(n int, seed uint64) []geo.Point {
	rng := rand.New(rand.NewPCG(seed, 5))
	xs := make([]geo.Point, n)
	for i := range xs {
		xs[i] = geo.Point{X: rng.Float64()*24 - 2, Y: rng.Float64()*24 - 2}
	}
	return xs
}

// batchConfig is a height-3 MSM (so the descent crosses two parent levels)
// with the given worker count, sampler and channel store (nil: private).
func batchConfig(workers int, kind opt.SamplerKind, store *channel.Store) Config {
	cfg := concurrencyConfig(workers)
	cfg.Eps = 2
	cfg.Sampler = kind
	cfg.Store = store
	return cfg
}

// TestReportBatchIdentityPooled pins the pooled Workers>1 batch descent to
// the per-point path: point i of a batch starting at query index base must
// release exactly what ReportWith releases from the PCG stream of query
// index base+i, for any worker count and any batch size around the chunk
// boundaries.
func TestReportBatchIdentityPooled(t *testing.T) {
	store := channel.New(channel.Options{})
	for _, kind := range []opt.SamplerKind{opt.SamplerCum, opt.SamplerAlias} {
		for _, workers := range []int{2, 3, 8} {
			t.Run(fmt.Sprintf("%v/workers=%d", kind, workers), func(t *testing.T) {
				m, err := New(batchConfig(workers, kind, store), 9)
				if err != nil {
					t.Fatal(err)
				}
				if m.Height() < 3 {
					t.Fatalf("height %d: want a descent over at least two parent levels", m.Height())
				}
				var base uint64
				for bi, n := range batchSizes {
					xs := batchInputs(n, uint64(bi))
					got, err := m.ReportBatchCtx(context.Background(), xs)
					if err != nil {
						t.Fatal(err)
					}
					for i, x := range xs {
						rng := rand.New(rand.NewPCG(9, reportStreamSalt^(base+uint64(i))))
						want, err := m.ReportWith(x, rng)
						if err != nil {
							t.Fatal(err)
						}
						if got[i] != want {
							t.Fatalf("n=%d point %d: batch %v, per-point %v", n, i, got[i], want)
						}
					}
					base += uint64(n)
				}
			})
		}
	}
}

// TestReportBatchIdentityConcurrent runs pooled batches from several
// goroutines on one mechanism, so batches share its pooled memos and
// reserve interleaved query-index blocks. Every batch must still equal the
// per-point path at exactly one block base, each base claimed once.
func TestReportBatchIdentityConcurrent(t *testing.T) {
	const goroutines, perG, n = 4, 5, 65
	m, err := New(batchConfig(3, opt.SamplerCum, nil), 9)
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(n, 7)
	outs := make([][]geo.Point, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				zs, err := m.ReportBatchCtx(context.Background(), xs)
				if err != nil {
					t.Error(err)
					return
				}
				outs[g*perG+k] = zs
			}
		}()
	}
	wg.Wait()
	perPoint := make([][]geo.Point, len(outs)) // indexed by block number
	for b := range perPoint {
		perPoint[b] = make([]geo.Point, n)
		for i, x := range xs {
			rng := rand.New(rand.NewPCG(9, reportStreamSalt^uint64(b*n+i)))
			if perPoint[b][i], err = m.ReportWith(x, rng); err != nil {
				t.Fatal(err)
			}
		}
	}
	claimed := make([]bool, len(perPoint))
	for k, zs := range outs {
		found := false
		for b, want := range perPoint {
			if !claimed[b] && slices.Equal(zs, want) {
				claimed[b], found = true, true
				break
			}
		}
		if !found {
			t.Fatalf("batch %d matches the per-point path at no unclaimed block base", k)
		}
	}
}

// TestReportBatchIdentitySequential pins the Workers<=1 batch descent to a
// Report loop on a twin mechanism (same seed, one shared RNG stream), and
// ReportBatchWith to a ReportWith loop on a twin caller RNG.
func TestReportBatchIdentitySequential(t *testing.T) {
	store := channel.New(channel.Options{})
	for _, kind := range []opt.SamplerKind{opt.SamplerCum, opt.SamplerAlias} {
		t.Run(kind.String(), func(t *testing.T) {
			batch, err := New(batchConfig(1, kind, store), 9)
			if err != nil {
				t.Fatal(err)
			}
			loop, err := New(batchConfig(0, kind, store), 9)
			if err != nil {
				t.Fatal(err)
			}
			rngBatch := rand.New(rand.NewPCG(21, 22))
			rngLoop := rand.New(rand.NewPCG(21, 22))
			for bi, n := range batchSizes {
				xs := batchInputs(n, uint64(bi))
				got, err := batch.ReportBatchCtx(context.Background(), xs)
				if err != nil {
					t.Fatal(err)
				}
				gotWith, err := batch.ReportBatchWith(xs, rngBatch)
				if err != nil {
					t.Fatal(err)
				}
				for i, x := range xs {
					want, err := loop.ReportCtx(context.Background(), x)
					if err != nil {
						t.Fatal(err)
					}
					if got[i] != want {
						t.Fatalf("n=%d point %d: ReportBatchCtx %v, Report loop %v", n, i, got[i], want)
					}
					wantWith, err := loop.ReportWith(x, rngLoop)
					if err != nil {
						t.Fatal(err)
					}
					if gotWith[i] != wantWith {
						t.Fatalf("n=%d point %d: ReportBatchWith %v, ReportWith loop %v", n, i, gotWith[i], wantWith)
					}
				}
			}
		})
	}
}

// TestReportBatchColdSolvesOnce: a cold Workers=8 batch on a fresh store,
// whose workers race to resolve the same parent cells (the memo's CAS-losers
// resolve through the store themselves), solves each distinct (level, parent)
// channel exactly once, and as many as a Report loop on a twin that visits
// the same cells.
func TestReportBatchColdSolvesOnce(t *testing.T) {
	xs := batchInputs(1025, 11)
	m, err := New(batchConfig(8, opt.SamplerCum, nil), 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReportBatchCtx(context.Background(), xs); err != nil {
		t.Fatal(err)
	}
	twin, err := New(batchConfig(8, opt.SamplerCum, nil), 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if _, err := twin.ReportCtx(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	_, solves := m.Stats()
	_, twinSolves := twin.Stats()
	if st := m.Store().Stats(); solves != twinSolves || int64(solves) != st.Misses || int64(solves) != st.Entries {
		t.Errorf("batch: %d solves, %d misses, %d resident channels; Report loop twin: %d solves",
			solves, st.Misses, st.Entries, twinSolves)
	}
}

// TestReportBatchCanceled: a canceled context stops both batch paths with
// ctx.Err(), also when every channel is warm and no store lookup would see
// the cancel.
func TestReportBatchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		m, err := New(batchConfig(w, opt.SamplerCum, nil), 9)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.PrecomputeCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ReportBatchCtx(ctx, batchInputs(200, 1)); err != context.Canceled {
			t.Errorf("w=%d: err %v, want context.Canceled", w, err)
		}
	}
}

// TestReportBatchAllocsFlat guards the allocation-free per-point descent:
// a warm pooled batch allocates per batch (its result, its chunk streams, the
// fan-out and the closures around it), never per point. The pooled memo and
// a worker's store lookup after losing a memo race allocate nothing warm, so
// going from 256 to 4096 points may add at most a rebuilt memo (its state and
// slot slices) when the pool dropped it, where a single per-point allocation
// would add 3840.
func TestReportBatchAllocsFlat(t *testing.T) {
	m, err := New(batchConfig(2, opt.SamplerCum, nil), 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PrecomputeCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		xs := batchInputs(n, 3)
		return testing.AllocsPerRun(20, func() {
			if _, err := m.ReportBatchCtx(context.Background(), xs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(256), allocs(4096)
	if large > small+2 {
		t.Errorf("allocs per ReportBatchCtx grew with n: %.0f at n=256, %.0f at n=4096 (slack 2)", small, large)
	}
	if perPoint := large / 4096; perPoint > 0.01 {
		t.Errorf("%.4f allocs per point at n=4096, want <= 0.01", perPoint)
	}
	t.Logf("allocs per batch: %.0f at n=256, %.0f at n=4096", small, large)
}

// TestReportAllocsPerLevel guards the warm single-point path: at Workers=0 a
// warm Report allocates nothing (the subgrid is a value and a warm store
// lookup builds no solve closure), and at Workers=4 its pooled per-query
// stream keeps it at no more than that.
func TestReportAllocsPerLevel(t *testing.T) {
	for _, eps := range []float64{0.5, 2} {
		allocs := make(map[int]float64)
		height := 0
		for _, w := range []int{0, 4} {
			cfg := concurrencyConfig(w)
			cfg.Eps = eps
			m, err := New(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.PrecomputeCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
			height = m.Height()
			xs := batchInputs(64, 3)
			i := 0
			allocs[w] = testing.AllocsPerRun(200, func() {
				if _, err := m.ReportCtx(context.Background(), xs[i%len(xs)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
		}
		if allocs[0] != 0 || allocs[4] > allocs[0] {
			t.Errorf("height %d: allocs per warm Report %.2f at Workers=0, %.2f at Workers=4; want 0 and no more",
				height, allocs[0], allocs[4])
		}
	}
}
