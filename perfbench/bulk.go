package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"geoind"
	"geoind/internal/geo"
)

// Shared mechanism configuration of all three workloads: MSM over the
// synthetic Gowalla prior at eps=1 and g=6, the paper's multi-step descent
// (height 2, a 36x36 leaf grid, 37 channels LP-solved at start).
const (
	mechEps  = 1.0
	mechG    = 6
	mechSeed = 7

	traceTheta   = 4.0 // km
	traceEpsTest = 0.25

	bulkBatch = 1024
)

// setupTimes splits one in-process set-up into its stages.
type setupTimes struct {
	dataset, build, precompute, total time.Duration
}

// buildMSM builds the dataset and the mechanism and solves its channels,
// timing each stage.
func buildMSM(workers int) (*geoind.Dataset, *geoind.MSM, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	ds := geoind.GowallaSynthetic()
	t1 := time.Now()
	m, err := geoind.NewMSM(geoind.MSMConfig{
		Eps: mechEps, Region: ds.Region(), Granularity: mechG,
		PriorPoints: ds.Points(), Seed: mechSeed, Workers: workers,
	})
	if err != nil {
		return nil, nil, st, err
	}
	t2 := time.Now()
	if err := m.Precompute(); err != nil {
		return nil, nil, st, err
	}
	t3 := time.Now()
	st = setupTimes{dataset: t1.Sub(t0), build: t2.Sub(t1), precompute: t3.Sub(t2), total: t3.Sub(t0)}
	return ds, m, st, nil
}

// leafGrid checks that a released location is the centre of a leaf cell,
// the only locations MSM ever releases.
type leafGrid struct {
	region geo.Rect
	g      int
}

func (l leafGrid) isCenter(p geo.Point) bool {
	cell := l.region.Width() / float64(l.g)
	for _, v := range [2]float64{(p.X - l.region.MinX) / cell, (p.Y - l.region.MinY) / cell} {
		k := math.Floor(v)
		if k < 0 || k >= float64(l.g) || math.Abs(v-k-0.5) > 1e-9 {
			return false
		}
	}
	return true
}

// bulkInput is the dataset's check-ins in an order drawn from the seed.
func bulkInput(ds *geoind.Dataset, seed uint64) []geo.Point {
	pts := ds.Points()
	r := rand.New(rand.NewPCG(seed, 0xb01c))
	r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// bulkTally is what a sanitize-bulk loop measured.
type bulkTally struct {
	calls, failed, points int64
	samples               []sample
	lossSum               float64
	firstErr              error
}

// bulkLoop releases pts in batches of bulkBatch, pass after pass, until dur
// has elapsed or, when calls > 0, for exactly that many calls. With a
// tracer, each call is a root span whose child the mechanism wrapper
// records.
func bulkLoop(mech tracedMech, tr *tracer, pts []geo.Point, leaf leafGrid, dur time.Duration, calls int64) *bulkTally {
	t := &bulkTally{}
	start := time.Now()
	deadline := start.Add(dur)
	more := func() bool {
		if calls > 0 {
			return t.calls < calls
		}
		return time.Now().Before(deadline)
	}
	for off := 0; more(); off = (off + bulkBatch) % len(pts) {
		xs := pts[off:min(off+bulkBatch, len(pts))]
		ctx := context.Background()
		var ref spanRef
		var spanStart int64
		if tr != nil {
			ref = tr.root()
			ctx = context.WithValue(ctx, spanKey{}, ref)
			spanStart = tr.now()
		}
		t0 := time.Now()
		zs, err := mech.ReportBatchCtx(ctx, xs)
		d := time.Since(t0)
		if tr != nil {
			tr.record(span{req: ref.req, id: ref.id, name: spanBulk, n: int32(len(xs)), start: spanStart, end: tr.now()})
		}
		t.calls++
		smp := sample{end: time.Since(start), lat: d}
		if err == nil && len(zs) != len(xs) {
			err = fmt.Errorf("batch of %d returned %d locations", len(xs), len(zs))
		}
		for i := 0; err == nil && i < len(zs); i++ {
			if !leaf.isCenter(zs[i]) {
				err = fmt.Errorf("released %v is not a leaf-cell centre", zs[i])
			}
			t.lossSum += zs[i].Dist(xs[i])
		}
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = err
			}
		} else {
			t.points += int64(len(zs))
			smp.points = int32(len(zs))
		}
		t.samples = append(t.samples, smp)
	}
	return t
}

// runBulk is the untraced sanitize-bulk workload.
func (b *bench) runBulk() error {
	var setups []float64
	var ds *geoind.Dataset
	var m *geoind.MSM
	for range setupRepeats {
		m = nil
		runtime.GC()
		var st setupTimes
		var err error
		if ds, m, st, err = buildMSM(b.workers); err != nil {
			return err
		}
		setups = append(setups, st.total.Seconds())
	}
	b.set("setup_s", median(setups), "s")

	pts := bulkInput(ds, b.seed)
	leaf := leafGrid{ds.Region(), m.LeafGranularity()}
	before := m.StoreStats()
	t := bulkLoop(tracedMech{m: m}, nil, pts, leaf, b.dur, 0)
	if miss := m.StoreStats().Misses - before.Misses; miss != 0 {
		b.failf("channel store solved %d channels after set-up", miss)
	}
	b.addBulk(t)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	b.setWindows(t.samples)
	b.set("eps_per_point", m.Epsilon(), "eps")
	b.set("loss_km", t.lossSum/float64(t.points), "km")
	b.set("rss_mb", rss, "MB")
	return nil
}

func (b *bench) addBulk(t *bulkTally) {
	b.attempted += t.calls
	b.failed += t.failed
	if t.firstErr != nil {
		b.failf("sanitize-bulk: %v", t.firstErr)
	}
}
