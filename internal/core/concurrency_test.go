package core

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"

	"geoind/internal/channel"
	"geoind/internal/geo"
)

// concurrencyConfig builds a small MSM with a skewed prior and the given
// worker count.
func concurrencyConfig(workers int) Config {
	return Config{
		Eps:         0.5,
		G:           3,
		Region:      region20(),
		PriorPoints: clusteredPoints(500, 3),
		Workers:     workers,
	}
}

// hammer fires fn from 16 goroutines, n calls each, spreading inputs over
// the region so many distinct channels get exercised.
func hammer(t *testing.T, n int, fn func(x geo.Point) error) {
	t.Helper()
	const goroutines = 16
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 99))
			for i := 0; i < n; i++ {
				x := geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
				if err := fn(x); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestConcurrentColdSingleflight hammers a cold mechanism from 16 goroutines
// and verifies that the store's singleflight performed exactly one LP solve
// per resident (level, cell) key, with every other lookup a hit.
func TestConcurrentColdSingleflight(t *testing.T) {
	m, err := New(concurrencyConfig(-1), 42)
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, 25, func(x geo.Point) error {
		_, err := m.ReportCtx(context.Background(), x)
		return err
	})
	queries, solves := m.Stats()
	if queries != 16*25 {
		t.Errorf("queries = %d, want %d", queries, 16*25)
	}
	if solves != m.Store().Len() {
		t.Errorf("solves = %d, resident channels = %d: duplicate or lost solves", solves, m.Store().Len())
	}
	st := m.Store().Stats()
	if int(st.Misses) != solves {
		t.Errorf("store misses = %d, want %d (one per solve)", st.Misses, solves)
	}
	if st.Hits == 0 {
		t.Error("expected warm hits under repeated concurrent load")
	}
	if st.Inflight != 0 {
		t.Errorf("inflight = %d after quiescence, want 0", st.Inflight)
	}
}

// TestConcurrentPrecomputeAndReport overlaps eager Precompute with live
// Report traffic; singleflight must still hold the one-solve-per-key
// invariant and Precompute must leave the full index resident.
func TestConcurrentPrecomputeAndReport(t *testing.T) {
	m, err := New(concurrencyConfig(-1), 7)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	precompErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		precompErr <- m.PrecomputeCtx(context.Background())
	}()
	hammer(t, 15, func(x geo.Point) error {
		_, err := m.ReportCtx(context.Background(), x)
		return err
	})
	wg.Wait()
	if err := <-precompErr; err != nil {
		t.Fatal(err)
	}
	// Full index: 1 root channel plus g^2 per additional level.
	want := 0
	parents := 1
	for level := 0; level < m.Height(); level++ {
		want += parents
		parents *= m.cfg.G * m.cfg.G
	}
	if m.Store().Len() != want {
		t.Errorf("resident channels = %d, want full index %d", m.Store().Len(), want)
	}
	_, solves := m.Stats()
	if solves != want {
		t.Errorf("solves = %d, want exactly %d (one per key)", solves, want)
	}
}

// TestSequentialModeBitIdenticalToSeed verifies the Workers<=1 Report path
// reproduces the historical output stream bit for bit: the seed code drew
// every report from one PCG stream (seed, 0x9e3779b97f4a7c15) in call order.
func TestSequentialModeBitIdenticalToSeed(t *testing.T) {
	const seed = 42
	m, err := New(concurrencyConfig(1), seed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(concurrencyConfig(1), seed)
	if err != nil {
		t.Fatal(err)
	}
	refRng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	inputs := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 200; i++ {
		x := geo.Point{X: inputs.Float64() * 20, Y: inputs.Float64() * 20}
		got, err := m.ReportCtx(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.ReportWith(x, refRng)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("report %d: sequential mode diverged from seed stream: %v vs %v", i, got, want)
		}
	}
}

// TestParallelModeDeterministicByArrival verifies the Workers>1 path is
// deterministic given the seed and arrival order: two identical mechanisms
// fed the same sequential call stream produce identical outputs.
func TestParallelModeDeterministicByArrival(t *testing.T) {
	mk := func() *Mechanism {
		m, err := New(concurrencyConfig(4), 42)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := mk(), mk()
	inputs := rand.New(rand.NewPCG(8, 9))
	for i := 0; i < 200; i++ {
		x := geo.Point{X: inputs.Float64() * 20, Y: inputs.Float64() * 20}
		z1, err1 := m1.ReportCtx(context.Background(), x)
		z2, err2 := m2.ReportCtx(context.Background(), x)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if z1 != z2 {
			t.Fatalf("report %d diverged across identical mechanisms: %v vs %v", i, z1, z2)
		}
	}
}

// TestSharedStoreAcrossMechanisms injects one store into two identically
// configured mechanisms and verifies the second rides the first's channels
// (same prior fingerprint) without a single extra solve.
func TestSharedStoreAcrossMechanisms(t *testing.T) {
	cfg := concurrencyConfig(-1)
	cfg.Store = channel.New(channel.Options{})
	m1, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.PrecomputeCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, solvesBefore := m1.Stats()
	m2, err := New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, 10, func(x geo.Point) error {
		_, err := m2.ReportCtx(context.Background(), x)
		return err
	})
	if _, solves := m2.Stats(); solves != 0 {
		t.Errorf("second mechanism performed %d solves despite shared warm store", solves)
	}
	if _, solves := m1.Stats(); solves != solvesBefore {
		t.Errorf("first mechanism's solve count moved %d -> %d", solvesBefore, solves)
	}
}
