package session

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"
)

// BenchmarkJournalAppend measures the cost one accepted Spend pays for
// durability under the two interesting fsync policies: SyncEvery=1 (the
// default — every record hits disk before Spend returns) and SyncEvery=64
// (bounded-loss batching). The memory-only store is the no-journal floor.
func BenchmarkJournalAppend(b *testing.B) {
	for _, tc := range []struct {
		name string
		dir  bool
		sync int
	}{
		{"memory", false, 0},
		{"sync=1", true, 1},
		{"sync=64", true, 64},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{Limit: 1e12, Window: time.Hour, SyncEvery: tc.sync}
			if tc.dir {
				cfg.Dir = b.TempDir()
			}
			s, err := Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Spend(fmt.Sprintf("u%d", i%1024), 0.001); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournalSpendDuringCompaction measures durable spends while
// background compactions run: 10k users already in the snapshot and two
// goroutines spending at random, with the default CompactEvery, so a
// compaction starts every 4096 records. It reports the per-spend latency at
// the 99.9th percentile and the maximum. Run at least 10k spends so the
// percentile has ten beyond it, e.g. -benchtime 40000x (about ten
// compactions).
func BenchmarkJournalSpendDuringCompaction(b *testing.B) {
	const users, writers = 10000, 2
	s, err := Open(Config{Limit: 1e12, Window: time.Hour, Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	names := make([]string, users)
	seed := make([]State, users)
	for i := range names {
		names[i] = fmt.Sprintf("user-%05d", i)
		seed[i] = State{User: names[i], Spent: 0.001, WindowStart: time.Now()}
	}
	if err := s.Replace(seed); err != nil {
		b.Fatal(err)
	}
	lat := make([][]time.Duration, writers)
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		n := b.N / writers
		if w == 0 {
			n += b.N % writers
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			lat[w] = make([]time.Duration, 0, n)
			for i := 0; i < n; i++ {
				start := time.Now()
				if err := s.Spend(names[rng.IntN(users)], 0.001); err != nil {
					b.Error(err)
					return
				}
				lat[w] = append(lat[w], time.Since(start))
			}
		}(w, n)
	}
	wg.Wait()
	b.StopTimer()
	all := append(lat[0], lat[1]...)
	if len(all) == 0 {
		return
	}
	slices.Sort(all)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	b.ReportMetric(us(all[(len(all)-1)*999/1000]), "p99.9_us")
	b.ReportMetric(us(all[len(all)-1]), "max_us")
}
