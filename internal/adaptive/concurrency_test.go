package adaptive

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"

	"geoind/internal/geo"
)

// hammerReports fires report from 16 goroutines, n calls each, over inputs
// spread across the 20 km region.
func hammerReports(t *testing.T, n int, report func(x geo.Point) error) {
	t.Helper()
	const goroutines = 16
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 77))
			for i := 0; i < n; i++ {
				x := geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
				if err := report(x); err != nil {
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

func concurrentKD(t *testing.T, workers int, seed uint64) *Mechanism {
	t.Helper()
	m, err := New(Config{
		Eps:         2.0,
		Region:      geo.NewSquare(20),
		Fanout:      3,
		Height:      2,
		PriorPoints: clusteredPoints(600, 5),
		Workers:     workers,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func concurrentQuad(t *testing.T, workers int, seed uint64) *Mechanism {
	t.Helper()
	m, err := NewQuad(QuadConfig{
		Eps:         2.0,
		Region:      geo.NewSquare(20),
		MaxDepth:    4,
		PriorPoints: clusteredPoints(600, 5),
		Workers:     workers,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestKDConcurrentSingleflight overlaps Precompute with 16 goroutines of
// Report traffic on the k-d mechanism and checks every inner node's channel
// was solved exactly once.
func TestKDConcurrentSingleflight(t *testing.T) {
	m := concurrentKD(t, -1, 11)
	var wg sync.WaitGroup
	wg.Add(1)
	precompErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		precompErr <- m.PrecomputeCtx(context.Background())
	}()
	hammerReports(t, 15, func(x geo.Point) error {
		_, err := m.ReportCtx(context.Background(), x)
		return err
	})
	wg.Wait()
	if err := <-precompErr; err != nil {
		t.Fatal(err)
	}
	inner := 0
	var walk func(*Node)
	walk = func(n *Node) {
		if n.Children == nil {
			return
		}
		inner++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(m.Tree().Root)
	if _, got := m.Stats(); got != inner {
		t.Errorf("solves = %d, want exactly one per inner node (%d)", got, inner)
	}
	st := m.Store().Stats()
	if int(st.Misses) != inner || int(st.Entries) != inner {
		t.Errorf("store misses/entries = %d/%d, want %d/%d", st.Misses, st.Entries, inner, inner)
	}
}

// TestQuadConcurrentSingleflight is the quadtree counterpart.
func TestQuadConcurrentSingleflight(t *testing.T) {
	m := concurrentQuad(t, -1, 11)
	var wg sync.WaitGroup
	wg.Add(1)
	precompErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		precompErr <- m.PrecomputeCtx(context.Background())
	}()
	hammerReports(t, 15, func(x geo.Point) error {
		_, err := m.ReportCtx(context.Background(), x)
		return err
	})
	wg.Wait()
	if err := <-precompErr; err != nil {
		t.Fatal(err)
	}
	inner := 0
	var walk func(*Node)
	walk = func(n *Node) {
		if n.Children == nil {
			return
		}
		inner++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(m.Tree().Root)
	if _, got := m.Stats(); got != inner {
		t.Errorf("solves = %d, want exactly one per inner node (%d)", got, inner)
	}
	st := m.Store().Stats()
	if int(st.Misses) != inner || int(st.Entries) != inner {
		t.Errorf("store misses/entries = %d/%d, want %d/%d", st.Misses, st.Entries, inner, inner)
	}
}

// TestKDSequentialModeBitIdenticalToSeed pins the Workers<=1 k-d Report path
// to the historical single-stream behaviour (PCG salt 0xada9717e, call
// order).
func TestKDSequentialModeBitIdenticalToSeed(t *testing.T) {
	const seed = 23
	m := concurrentKD(t, 1, seed)
	ref := concurrentKD(t, 1, seed)
	refRng := rand.New(rand.NewPCG(seed, 0xada9717e))
	inputs := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 150; i++ {
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
			t.Fatalf("report %d diverged from seed stream: %v vs %v", i, got, want)
		}
	}
}

// TestQuadSequentialModeBitIdenticalToSeed is the quadtree counterpart
// (PCG salt 0x90ad7ee).
func TestQuadSequentialModeBitIdenticalToSeed(t *testing.T) {
	const seed = 23
	m := concurrentQuad(t, 1, seed)
	ref := concurrentQuad(t, 1, seed)
	refRng := rand.New(rand.NewPCG(seed, 0x90ad7ee))
	inputs := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 150; i++ {
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
			t.Fatalf("report %d diverged from seed stream: %v vs %v", i, got, want)
		}
	}
}

// TestAdaptiveParallelModeDeterministic checks the Workers>1 per-query
// stream path is reproducible given arrival order, for both index families.
func TestAdaptiveParallelModeDeterministic(t *testing.T) {
	kd1, kd2 := concurrentKD(t, 4, 42), concurrentKD(t, 4, 42)
	q1, q2 := concurrentQuad(t, 4, 42), concurrentQuad(t, 4, 42)
	inputs := rand.New(rand.NewPCG(6, 7))
	for i := 0; i < 150; i++ {
		x := geo.Point{X: inputs.Float64() * 20, Y: inputs.Float64() * 20}
		a1, err1 := kd1.ReportCtx(context.Background(), x)
		a2, err2 := kd2.ReportCtx(context.Background(), x)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a1 != a2 {
			t.Fatalf("kd report %d diverged: %v vs %v", i, a1, a2)
		}
		b1, err1 := q1.ReportCtx(context.Background(), x)
		b2, err2 := q2.ReportCtx(context.Background(), x)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if b1 != b2 {
			t.Fatalf("quad report %d diverged: %v vs %v", i, b1, b2)
		}
	}
}
