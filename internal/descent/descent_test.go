package descent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"geoind/internal/channel"
	"geoind/internal/geo"
	"geoind/internal/opt"
)

// quad is a node of quadTree: cell (x, y) of the 2^depth x 2^depth grid
// over the unit square.
type quad struct{ depth, x, y int }

// quadTree is a complete quadtree of the given height over the unit square,
// a Partition small enough to reason about in tests. Its channels are
// toyChannels; solves counts Solve calls and fail, when set, fails them.
type quadTree struct {
	height int
	solves atomic.Int64
	fail   error
}

func (q *quadTree) off(depth int) int { return ((1 << (2 * depth)) - 1) / 3 }

func (q *quadTree) Root() quad               { return quad{} }
func (q *quadTree) Inners() int              { return q.off(q.height) }
func (q *quadTree) Depth() int               { return q.height }
func (q *quadTree) Children(quad) int        { return 4 }
func (q *quadTree) Child(n quad, i int) quad { return quad{n.depth + 1, 2*n.x + i%2, 2*n.y + i/2} }
func (q *quadTree) Key(n quad) channel.Key {
	return channel.NewKey("quad-test", n.depth, n.y<<n.depth+n.x, 1, 0, 0)
}

func (q *quadTree) Inner(n quad) int {
	if n.depth == q.height {
		return -1
	}
	return q.off(n.depth) + n.y<<n.depth + n.x
}

func (q *quadTree) Enclosing(n quad, p geo.Point) int {
	s := float64(int(1) << n.depth)
	cx, cy := int(p.X*s*2)-2*n.x, int(p.Y*s*2)-2*n.y
	if cx < 0 || cx > 1 || cy < 0 || cy > 1 {
		return -1
	}
	return cy*2 + cx
}

func (q *quadTree) Release(n quad) geo.Point {
	s := float64(int(1) << n.depth)
	return geo.Point{X: (float64(n.x) + 0.5) / s, Y: (float64(n.y) + 0.5) / s}
}

func (q *quadTree) Solve(ctx context.Context, n quad) (*toyChannel, error) {
	q.solves.Add(1)
	if q.fail != nil {
		return nil, q.fail
	}
	return &toyChannel{n: 4}, nil
}

// toyChannel keeps the input child with probability 1/2 and otherwise moves
// to the next one, so every draw consumes randomness.
type toyChannel struct{ n int }

func (c *toyChannel) N() int                              { return c.n }
func (c *toyChannel) Sampler(opt.SamplerKind) opt.Sampler { return c }
func (c *toyChannel) Sample(x int, rng *rand.Rand) int    { return (x + rng.IntN(2)) % c.n }

const (
	testSalt   = 0x5eed
	testStream = 0x57ea
)

func newTestEngine(q *quadTree, store *channel.Store, workers int, owns func(channel.Key) bool) *Engine[quad, *toyChannel] {
	return New[quad, *toyChannel](q, geo.Rect{MaxX: 1, MaxY: 1}, store, workers, opt.SamplerCum, owns, 3, testSalt, testStream)
}

// testInputs spans a margin around the unit square, so the clamp and the
// out-of-node draw of line 10 are both hit.
func testInputs(n int, seed uint64) []geo.Point {
	r := rand.New(rand.NewPCG(seed, 1))
	xs := make([]geo.Point, n)
	for i := range xs {
		xs[i] = geo.Point{X: r.Float64()*1.2 - 0.1, Y: r.Float64()*1.2 - 0.1}
	}
	return xs
}

// TestReportBatchMatchesPerPoint: at every worker count and at batch sizes
// around the chunk size, consecutive batches equal the per-point path.
// Pooled, point i of a batch at query base b draws from the stream of index
// b+i; sequential, the batch continues the engine's one generator, like a
// ReportCtx loop does on a twin. ReportBatchWith equals a ReportWith loop.
func TestReportBatchMatchesPerPoint(t *testing.T) {
	ctx := context.Background()
	for _, w := range []int{0, 1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			e := newTestEngine(&quadTree{height: 3}, nil, w, nil)
			twin := newTestEngine(&quadTree{height: 3}, nil, w, nil)
			var base uint64
			for bi, n := range []int{1, 63, 64, 65, 300} {
				xs := testInputs(n, uint64(bi))
				got, err := e.ReportBatchCtx(ctx, xs)
				if err != nil {
					t.Fatal(err)
				}
				for i, x := range xs {
					var want geo.Point
					if w <= 1 {
						want, err = twin.ReportCtx(ctx, x)
					} else {
						want, err = e.ReportWith(x, rand.New(rand.NewPCG(3, testStream^(base+uint64(i)))))
					}
					if err != nil {
						t.Fatal(err)
					}
					if got[i] != want {
						t.Fatalf("n=%d point %d: batch %v, per point %v", n, i, got[i], want)
					}
				}
				base += uint64(n)

				rngBatch, rngLoop := rand.New(rand.NewPCG(5, 6)), rand.New(rand.NewPCG(5, 6))
				with, err := e.ReportBatchWith(xs, rngBatch)
				if err != nil {
					t.Fatal(err)
				}
				for i, x := range xs {
					if want, _ := e.ReportWith(x, rngLoop); with[i] != want {
						t.Fatalf("n=%d point %d: ReportBatchWith %v, ReportWith loop %v", n, i, with[i], want)
					}
				}
			}
			if q, _ := e.Stats(); q != 1+63+64+65+300 {
				t.Errorf("queries %d, want one per ReportBatchCtx point", q)
			}
		})
	}
}

// TestReportBatchConcurrentColdSolvesOnce runs pooled batches from several
// goroutines on a cold engine: they share pooled memos and race to resolve
// the same nodes, yet every inner node is solved exactly once, and every
// batch equals the per-point path at exactly one reserved block base.
func TestReportBatchConcurrentColdSolvesOnce(t *testing.T) {
	const goroutines, perG, n = 4, 5, 65
	q := &quadTree{height: 3}
	e := newTestEngine(q, nil, 3, nil)
	xs := testInputs(n, 7)
	outs := make([][]geo.Point, goroutines*perG)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range perG {
				zs, err := e.ReportBatchCtx(context.Background(), xs)
				if err != nil {
					t.Error(err)
					return
				}
				outs[g*perG+k] = zs
			}
		}()
	}
	wg.Wait()
	claimed := make([]bool, len(outs))
	for k, zs := range outs {
		found := false
		for b := range outs {
			want := make([]geo.Point, n)
			for i, x := range xs {
				want[i], _ = e.ReportWith(x, rand.New(rand.NewPCG(3, testStream^uint64(b*n+i))))
			}
			if !claimed[b] && slices.Equal(zs, want) {
				claimed[b], found = true, true
				break
			}
		}
		if !found {
			t.Fatalf("batch %d matches the per-point path at no unclaimed block base", k)
		}
	}
	_, solves := e.Stats()
	if st := e.Store().Stats(); int64(solves) != q.solves.Load() || st.Misses != q.solves.Load() || st.Entries != q.solves.Load() {
		t.Errorf("%d counted solves, %d Solve calls, %d misses, %d resident: want one solve per resident channel",
			solves, q.solves.Load(), st.Misses, st.Entries)
	}
}

// TestReportBatchCanceled: a canceled context stops both batch paths with
// ctx.Err(), also when every channel is warm and no store lookup would see
// the cancel.
func TestReportBatchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		e := newTestEngine(&quadTree{height: 2}, nil, w, nil)
		if err := e.PrecomputeCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ReportBatchCtx(ctx, testInputs(200, 1)); err != context.Canceled {
			t.Errorf("w=%d: err %v, want context.Canceled", w, err)
		}
	}
}

// TestReportBatchSolveError: a failing solve aborts the batch with its error
// and no result.
func TestReportBatchSolveError(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 4} {
		e := newTestEngine(&quadTree{height: 2, fail: boom}, nil, w, nil)
		if zs, err := e.ReportBatchCtx(context.Background(), testInputs(200, 1)); !errors.Is(err, boom) || zs != nil {
			t.Errorf("w=%d: (%d points, %v), want (none, boom)", w, len(zs), err)
		}
	}
}

// foreignBacking hands back v for every key, as a foreign or buggy
// snapshot source might.
type foreignBacking struct{ v any }

func (b foreignBacking) Load(context.Context, channel.Key) (any, bool) { return b.v, true }
func (b foreignBacking) Store(channel.Key, any)                        {}

// TestChannelDistrustsForeignValues: a stored value of the wrong type or
// shape is never sampled from; the engine solves the node itself.
func TestChannelDistrustsForeignValues(t *testing.T) {
	for _, v := range []any{&toyChannel{n: 3}, "not a channel"} {
		q := &quadTree{height: 1}
		e := newTestEngine(q, channel.New(channel.Options{Backing: foreignBacking{v}}), 0, nil)
		ch, err := e.Channel(context.Background(), q.Root())
		if err != nil {
			t.Fatal(err)
		}
		if ch.N() != 4 || q.solves.Load() != 1 {
			t.Errorf("backing value %v: got a channel over %d children after %d solves, want a fresh solve over 4",
				v, ch.N(), q.solves.Load())
		}
	}
}

// TestPrecomputeOwns: PrecomputeCtx solves every inner node once, or, under
// an owns filter, exactly the accepted ones.
func TestPrecomputeOwns(t *testing.T) {
	q := &quadTree{height: 3}
	if err := newTestEngine(q, nil, 4, nil).PrecomputeCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := q.solves.Load(); got != int64(q.Inners()) {
		t.Errorf("%d solves, want one per inner node (%d)", got, q.Inners())
	}
	q = &quadTree{height: 3}
	e := newTestEngine(q, nil, 4, func(k channel.Key) bool { return k.Level == 1 })
	if err := e.PrecomputeCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := e.Store().Len(); got != 4 || q.solves.Load() != 4 {
		t.Errorf("%d resident after %d solves, want the 4 level-1 channels", got, q.solves.Load())
	}
}

// TestChunkStreamLayout guards the batch streams' padding: from the last
// byte of one chunk's stream to the first byte of the next there are at
// least 64 bytes, so two workers drawing for adjacent chunks never write the
// same cache line, whatever the slice's alignment. The padding is the only
// other field, and it is never written.
func TestChunkStreamLayout(t *testing.T) {
	var cs [2]chunkStream
	first := uintptr(unsafe.Pointer(&cs[0])) + unsafe.Offsetof(cs[0].Stream)
	next := uintptr(unsafe.Pointer(&cs[1])) + unsafe.Offsetof(cs[1].Stream)
	if gap := next - (first + unsafe.Sizeof(cs[0].Stream)); gap < 64 {
		t.Fatalf("adjacent chunk streams %d bytes apart (slot %d bytes, stream %d at offset %d), want >= 64",
			gap, unsafe.Sizeof(cs[0]), unsafe.Sizeof(cs[0].Stream), unsafe.Offsetof(cs[0].Stream))
	}
}

// TestClampMatchesRect: the engine's hoisted clamp equals geo.Rect.Clamp bit
// for bit on both sides of every bound, at the bounds, on signed zeros and
// infinities, and is NaN where it is (the clamped point only feeds
// comparisons, which do not tell one NaN from another).
func TestClampMatchesRect(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for _, r := range []geo.Rect{{MaxX: 1, MaxY: 1}, {MinX: -3, MinY: 2, MaxX: 0, MaxY: 7.5}} {
		e := New[quad, *toyChannel](&quadTree{height: 1}, r, nil, 1, opt.SamplerCum, nil, 3, testSalt, testStream)
		var vs []float64
		for _, b := range []float64{r.MinX, r.MaxX, r.MinY, r.MaxY} {
			vs = append(vs, b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)))
		}
		vs = append(vs, 0, math.Copysign(0, -1), 0.5, math.Inf(1), math.Inf(-1), math.NaN())
		for _, x := range vs {
			for _, y := range vs {
				p := geo.Point{X: x, Y: y}
				got, want := e.clamp(p), r.Clamp(p)
				if !same(got.X, want.X) || !same(got.Y, want.Y) {
					t.Fatalf("%v clamp %v: engine %v, Rect.Clamp %v", r, p, got, want)
				}
			}
		}
	}
}
