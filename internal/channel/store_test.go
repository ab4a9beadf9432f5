package channel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func key(i int) Key { return NewKey("test", 0, i, 0.5, 1, 42) }

func TestGetOrComputeBasic(t *testing.T) {
	s := New(Options{})
	v, hit, err := s.GetOrCompute(key(1), func() (any, error) { return "a", nil })
	if err != nil || hit || v.(string) != "a" {
		t.Fatalf("first call: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = s.GetOrCompute(key(1), func() (any, error) {
		t.Error("solve called on warm key")
		return nil, nil
	})
	if err != nil || !hit || v.(string) != "a" {
		t.Fatalf("second call: v=%v hit=%v err=%v", v, hit, err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats %+v want hits=1 misses=1 entries=1", st)
	}
}

// TestLookupCountsHitsOnly: a Lookup miss counts nothing (its caller falls
// back to GetOrCompute, which counts the miss), a Lookup hit counts exactly
// as a warm GetOrCompute does.
func TestLookupCountsHitsOnly(t *testing.T) {
	s := New(Options{})
	if v, ok := s.Lookup(key(1)); ok || v != nil {
		t.Fatalf("cold Lookup: v=%v ok=%v", v, ok)
	}
	if _, _, err := s.GetOrCompute(key(1), func() (any, error) { return "a", nil }); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Lookup(key(1)); !ok || v.(string) != "a" {
		t.Fatalf("warm Lookup: v=%v ok=%v", v, ok)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats %+v want hits=1 misses=1", st)
	}
}

func TestKeySeparation(t *testing.T) {
	s := New(Options{})
	mk := func(k Key, v string) {
		got, _, err := s.GetOrCompute(k, func() (any, error) { return v, nil })
		if err != nil || got.(string) != v {
			t.Fatalf("key %+v: got %v err %v", k, got, err)
		}
	}
	base := NewKey("msm", 1, 2, 0.5, 1, 99)
	mk(base, "base")
	for name, k := range map[string]Key{
		"namespace": NewKey("quad", 1, 2, 0.5, 1, 99),
		"level":     NewKey("msm", 2, 2, 0.5, 1, 99),
		"cell":      NewKey("msm", 1, 3, 0.5, 1, 99),
		"eps":       NewKey("msm", 1, 2, 0.25, 1, 99),
		"metric":    NewKey("msm", 1, 2, 0.5, 2, 99),
		"prior":     NewKey("msm", 1, 2, 0.5, 1, 100),
	} {
		mk(k, "variant-"+name)
	}
	if got := s.Len(); got != 7 {
		t.Errorf("Len=%d want 7 distinct entries", got)
	}
	if v, ok := s.Get(base); !ok || v.(string) != "base" {
		t.Errorf("base key clobbered: %v %v", v, ok)
	}
}

func TestSingleflight(t *testing.T) {
	s := New(Options{})
	const goroutines = 32
	var solves atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := s.GetOrCompute(key(7), func() (any, error) {
				solves.Add(1)
				<-release // hold the flight open so everyone joins it
				return 123, nil
			})
			if err != nil || v.(int) != 123 {
				t.Errorf("v=%v err=%v", v, err)
			}
		}()
	}
	// Wait for the one flight to start, then release it.
	for s.Stats().Inflight == 0 {
	}
	close(release)
	wg.Wait()
	if n := solves.Load(); n != 1 {
		t.Errorf("%d solves for one key, want 1 (singleflight)", n)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Errorf("stats %+v want misses=1 hits=%d", st, goroutines-1)
	}
}

func TestErrorNotCached(t *testing.T) {
	s := New(Options{})
	boom := errors.New("boom")
	if _, _, err := s.GetOrCompute(key(1), func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err=%v want boom", err)
	}
	if s.Len() != 0 {
		t.Fatal("failed solve left an entry behind")
	}
	v, _, err := s.GetOrCompute(key(1), func() (any, error) { return "ok", nil })
	if err != nil || v.(string) != "ok" {
		t.Fatalf("retry after error: v=%v err=%v", v, err)
	}
}

func TestCostAwareEviction(t *testing.T) {
	s := New(Options{
		MaxCost: 10,
		CostFn:  func(v any) int64 { return int64(v.(int)) },
	})
	for i := 0; i < 5; i++ {
		if _, _, err := s.GetOrCompute(key(i), func() (any, error) { return 3, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Cost > 10 {
		t.Errorf("resident cost %d exceeds MaxCost 10", st.Cost)
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite cost pressure")
	}
	// The most recent key must have survived.
	if _, ok := s.Get(key(4)); !ok {
		t.Error("most recently inserted entry was evicted")
	}
}

func TestClear(t *testing.T) {
	s := New(Options{})
	for i := 0; i < 10; i++ {
		s.GetOrCompute(key(i), func() (any, error) { return i, nil })
	}
	s.Clear()
	if s.Len() != 0 {
		t.Errorf("Len=%d after Clear", s.Len())
	}
	if st := s.Stats(); st.Entries != 0 || st.Cost != 0 {
		t.Errorf("stats after Clear: %+v", st)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	s := New(Options{})
	const keys = 20
	var solves atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key((g + i) % keys)
				v, _, err := s.GetOrCompute(k, func() (any, error) {
					solves.Add(1)
					return fmt.Sprintf("v%d", (g+i)%keys), nil
				})
				want := fmt.Sprintf("v%d", (g+i)%keys)
				if err != nil || v.(string) != want {
					t.Errorf("got %v want %v err %v", v, want, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := solves.Load(); n != keys {
		t.Errorf("%d solves for %d keys", n, keys)
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		var sum atomic.Int64
		if err := ForEach(workers, 100, func(i int) error {
			sum.Add(int64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sum.Load() != 4950 {
			t.Errorf("workers=%d sum=%d want 4950", workers, sum.Load())
		}
	}
	boom := errors.New("boom")
	err := ForEach(8, 1000, func(i int) error {
		if i == 37 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err=%v want boom", err)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(0) != 1 || Workers(1) != 1 || Workers(7) != 7 {
		t.Error("Workers mapping broken")
	}
	if Workers(-1) < 1 {
		t.Error("Workers(-1) must be >= 1")
	}
}
