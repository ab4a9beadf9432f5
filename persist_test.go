package geoind_test

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"geoind"
)

func persistTestConfig(cacheDir string) geoind.MSMConfig {
	var pts []geoind.Point
	for i := 0; i < 40; i++ {
		pts = append(pts, geoind.Point{
			X: float64(i%8) * 2.3,
			Y: float64(i%5) * 3.1,
		})
	}
	return geoind.MSMConfig{
		Eps:         0.5,
		Region:      geoind.Square(20),
		Granularity: 3,
		PriorPoints: pts,
		Seed:        42,
		CacheDir:    cacheDir,
	}
}

func reportSequence(t *testing.T, m *geoind.MSM, n int) []geoind.Point {
	t.Helper()
	var out []geoind.Point
	for i := 0; i < n; i++ {
		x := geoind.Point{X: float64(i%7) * 2.9, Y: float64(i%4) * 4.7}
		z, err := m.ReportCtx(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, z)
	}
	return out
}

// TestWarmRestartZeroSolves is the acceptance criterion of the persistence
// layer: a restarted process pointed at a populated cache directory
// precomputes every channel without performing a single LP solve, and its
// report stream is bit-identical to the first process's.
func TestWarmRestartZeroSolves(t *testing.T) {
	dir := t.TempDir()

	m1, err := geoind.NewMSM(persistTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Precompute(); err != nil {
		t.Fatal(err)
	}
	m1.FlushCache()
	_, solves1 := m1.Stats()
	if solves1 == 0 {
		t.Fatal("cold start performed no solves")
	}
	st1 := m1.StoreStats()
	if st1.BackingWrites != int64(solves1) {
		t.Fatalf("persisted %d of %d solved channels", st1.BackingWrites, solves1)
	}
	seq1 := reportSequence(t, m1, 200)

	// Second process: same config, same directory.
	m2, err := geoind.NewMSM(persistTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Precompute(); err != nil {
		t.Fatal(err)
	}
	if _, solves2 := m2.Stats(); solves2 != 0 {
		t.Fatalf("warm restart performed %d LP solves, want 0", solves2)
	}
	st2 := m2.StoreStats()
	if st2.Misses != 0 {
		t.Fatalf("warm restart store misses = %d, want 0", st2.Misses)
	}
	if st2.BackingHits != int64(solves1) {
		t.Fatalf("warm restart loaded %d snapshots, want %d", st2.BackingHits, solves1)
	}

	// Bit-identity: the same seed must produce the same report stream.
	seq2 := reportSequence(t, m2, 200)
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("report %d: cold %v, warm %v", i, seq1[i], seq2[i])
		}
	}
}

// TestWarmRestartSpannerVariant checks that spanner-reduced channels persist
// under their own key variant: warm-restarting a spanner mechanism loads
// spanner snapshots, and an exact mechanism sharing the directory never sees
// them.
func TestWarmRestartSpannerVariant(t *testing.T) {
	dir := t.TempDir()

	cfgSpan := persistTestConfig(dir)
	cfgSpan.SpannerStretch = 1.5
	m1, err := geoind.NewMSM(cfgSpan)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Precompute(); err != nil {
		t.Fatal(err)
	}
	m1.FlushCache()
	_, solvesSpan := m1.Stats()
	if solvesSpan == 0 {
		t.Fatal("spanner cold start performed no solves")
	}

	// Warm spanner restart: zero solves.
	m2, err := geoind.NewMSM(cfgSpan)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Precompute(); err != nil {
		t.Fatal(err)
	}
	if _, s := m2.Stats(); s != 0 {
		t.Fatalf("warm spanner restart performed %d solves, want 0", s)
	}

	// An exact mechanism over the same directory must NOT reuse the
	// spanner snapshots: its keys differ in the variant field.
	mExact, err := geoind.NewMSM(persistTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := mExact.Precompute(); err != nil {
		t.Fatal(err)
	}
	if _, s := mExact.Stats(); s == 0 {
		t.Fatal("exact mechanism reused spanner snapshots")
	}
	// Let the write-behind of those solves finish before TempDir cleanup.
	mExact.FlushCache()
}

// TestWarmRestartLocalVariant checks that locally relevant channels persist
// under their own key variant and come back in a zero-solve warm restart:
// the sparse local snapshots (carrying their relevance domain) decode
// through the restricted verifier gate into bit-identical channels, and a
// mechanism with different construction knobs sharing the directory never
// sees them.
func TestWarmRestartLocalVariant(t *testing.T) {
	dir := t.TempDir()

	cfgLocal := persistTestConfig(dir)
	// The padded background needs eps*dmin large enough to absorb the mass
	// floor at every level of the budget allocation (beta < 1/2), so the
	// test budget is higher than the dense-construction tests use.
	cfgLocal.Eps = 3
	cfgLocal.LocalRadius = 4
	cfgLocal.LocalMassFloor = 0.05
	m1, err := geoind.NewMSM(cfgLocal)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Precompute(); err != nil {
		t.Fatal(err)
	}
	m1.FlushCache()
	_, solves1 := m1.Stats()
	if solves1 == 0 {
		t.Fatal("local cold start performed no solves")
	}
	local := m1.MechStats().Local
	if local.RadiusKm != 4 || local.MassFloor != 0.05 {
		t.Fatalf("local config = (%g, %g), want (4, 0.05)", local.RadiusKm, local.MassFloor)
	}
	if local.LocalChannels == 0 || local.DenseFallbacks != 0 {
		t.Fatalf("cold start: %d local channels, %d dense fallbacks, want >0 and 0", local.LocalChannels, local.DenseFallbacks)
	}
	seq1 := reportSequence(t, m1, 100)

	// Warm restart: every channel loads from its kind-5 snapshot, zero solves.
	m2, err := geoind.NewMSM(cfgLocal)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Precompute(); err != nil {
		t.Fatal(err)
	}
	if _, s := m2.Stats(); s != 0 {
		t.Fatalf("warm local restart performed %d LP solves, want 0", s)
	}
	if st := m2.StoreStats(); st.BackingHits != int64(solves1) {
		t.Fatalf("warm local restart loaded %d snapshots, want %d", st.BackingHits, solves1)
	}
	if local := m2.MechStats().Local; local.LocalChannels != 0 || local.DenseFallbacks != 0 {
		t.Fatalf("warm restart counted %d local solves and %d fallbacks, want 0/0", local.LocalChannels, local.DenseFallbacks)
	}
	seq2 := reportSequence(t, m2, 100)
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("report %d: cold %v, warm %v", i, seq1[i], seq2[i])
		}
	}

	// An exact mechanism over the same directory must NOT reuse the local
	// snapshots: its keys differ in the variant field.
	mExact, err := geoind.NewMSM(persistTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := mExact.Precompute(); err != nil {
		t.Fatal(err)
	}
	if _, s := mExact.Stats(); s == 0 {
		t.Fatal("exact mechanism reused local snapshots")
	}
	// Let the write-behind of those solves finish before TempDir cleanup.
	mExact.FlushCache()
}

// TestCacheBytesEvictionWithDiskReload bounds the resident cache tightly so
// channels are evicted during precompute, then verifies lookups still resolve
// (from disk) without additional solves once the directory is populated.
func TestCacheBytesEvictionWithDiskReload(t *testing.T) {
	dir := t.TempDir()

	cfg := persistTestConfig(dir)
	cfg.CacheBytes = 1 // evict everything immediately; disk is the only cache
	m1, err := geoind.NewMSM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Precompute(); err != nil {
		t.Fatal(err)
	}
	m1.FlushCache()
	_, solves1 := m1.Stats()
	if st := m1.StoreStats(); st.Evictions == 0 {
		t.Fatalf("CacheBytes=1 evicted nothing: %+v", st)
	}

	m2, err := geoind.NewMSM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Precompute(); err != nil {
		t.Fatal(err)
	}
	if _, s := m2.Stats(); s != 0 {
		t.Fatalf("evicting warm restart performed %d solves, want 0", s)
	}
	if _, err := m2.ReportCtx(context.Background(), geoind.Point{X: 3, Y: 4}); err != nil {
		t.Fatal(err)
	}
	_ = solves1

	// The snapshot directory holds one file per solved channel.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no snapshot namespace directories written")
	}
}

// rewriteSnapshotVersion rewrites every snapshot file under dir to carry the
// given format version (recomputing the trailing CRC so the frame stays
// structurally sound) — reproducing the on-disk state a process of another
// format version leaves behind.
func rewriteSnapshotVersion(t *testing.T, dir string, version uint32) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".chan") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(data[4:], version)
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
		n++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWarmRestartFromV1Snapshots is the rollout acceptance criterion for a
// snapshot format bump: a process started against a cache directory full of
// foreign-version (v1) files must come up with zero request errors — every
// file reads as a miss (not an error), is re-solved, and is overwritten in
// the current format — after which the next restart is a zero-solve warm
// start again.
func TestWarmRestartFromV1Snapshots(t *testing.T) {
	dir := t.TempDir()

	m1, err := geoind.NewMSM(persistTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Precompute(); err != nil {
		t.Fatal(err)
	}
	m1.FlushCache()
	_, solves1 := m1.Stats()

	// Regress every snapshot file to format version 1.
	if n := rewriteSnapshotVersion(t, dir, 1); n != solves1 {
		t.Fatalf("rewrote %d snapshot files, want %d", n, solves1)
	}

	// Second process: the v1 files are misses, not errors — precompute
	// re-solves everything and reports succeed with zero request errors.
	m2, err := geoind.NewMSM(persistTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Precompute(); err != nil {
		t.Fatal(err)
	}
	if _, s := m2.Stats(); s != solves1 {
		t.Fatalf("v1-directory restart performed %d solves, want %d", s, solves1)
	}
	if st := m2.StoreStats(); st.BackingHits != 0 {
		t.Fatalf("v1 snapshots produced %d backing hits, want 0", st.BackingHits)
	}
	// The skew is observable as version misses, and is not miscounted as
	// corruption.
	dst := m2.MechStats().Dir
	if dst == nil {
		t.Fatal("no dir-cache stats reported despite CacheDir")
	}
	if dst.VersionMisses != int64(solves1) || dst.Errors != 0 {
		t.Fatalf("dir-cache counters after v1 restart: %+v, want %d version misses and 0 errors",
			dst, solves1)
	}
	if _, err := m2.ReportBatchCtx(context.Background(), []geoind.Point{{X: 3, Y: 4}, {X: 11, Y: 2}}); err != nil {
		t.Fatalf("report after v1 migration: %v", err)
	}
	m2.FlushCache()

	// Third process: the directory was migrated in place — zero solves.
	m3, err := geoind.NewMSM(persistTestConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.Precompute(); err != nil {
		t.Fatal(err)
	}
	if _, s := m3.Stats(); s != 0 {
		t.Fatalf("restart after migration performed %d solves, want 0", s)
	}
}

// TestAdaptiveStoreKeysUnchanged pins the k-d adaptive mechanism's channel
// store keys through the snapshot file names they produce: a key change
// would leave every persisted CacheDir cold. The hash is FNV-64a over the
// sorted names relative to the cache dir, each followed by a NUL byte.
func TestAdaptiveStoreKeysUnchanged(t *testing.T) {
	dir := t.TempDir()
	ds := geoind.YelpSynthetic()
	m, err := geoind.NewAdaptiveMSM(geoind.AdaptiveMSMConfig{
		Eps: 0.5, Region: ds.Region(), PriorPoints: ds.Points(),
		Fanout: 3, Seed: 4, CacheDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Precompute(); err != nil {
		t.Fatal(err)
	}
	m.FlushCache()
	var names []string
	if err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		names = append(names, filepath.ToSlash(rel))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	if len(names) != 10 || h.Sum64() != 0x2fa1b5ae29cfbb7e {
		t.Fatalf("snapshot files %v (hash %016x), want 10 files hashing to 2fa1b5ae29cfbb7e", names, h.Sum64())
	}
}
