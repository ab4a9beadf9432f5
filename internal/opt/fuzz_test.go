package opt

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"testing"

	"geoind/internal/geo"
	"geoind/internal/grid"
)

// fuzzSeedPayloads encodes one channel of each snapshot kind — dense grid,
// dense points, compact grid, compact points, locally relevant grid — as
// fuzz corpus seeds.
func fuzzSeedPayloads(f *testing.F) [][]byte {
	f.Helper()
	codec := SnapshotCodec{}

	g, err := grid.New(geo.Rect{MaxX: 10, MaxY: 10}, 3)
	if err != nil {
		f.Fatal(err)
	}
	pw := make([]float64, g.NumCells())
	for i := range pw {
		pw[i] = float64(i + 1)
	}
	gridCh, err := Build(0.7, g, pw, geo.Euclidean, nil)
	if err != nil {
		f.Fatal(err)
	}

	centers := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0.5}, {X: 2.5, Y: 3}, {X: 4, Y: 1}}
	ptCh, err := BuildPoints(0.9, centers, []float64{1, 2, 3, 4}, geo.Euclidean, nil)
	if err != nil {
		f.Fatal(err)
	}

	var payloads [][]byte
	for _, v := range []any{gridCh, ptCh} {
		data, err := codec.Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		payloads = append(payloads, data)
	}
	if compact, err := gridCh.Prune(0.05, pw); err == nil {
		data, err := codec.Encode(compact)
		if err != nil {
			f.Fatal(err)
		}
		payloads = append(payloads, data)
	}
	if compact, err := ptCh.Prune(0.05, []float64{1, 2, 3, 4}); err == nil {
		data, err := codec.Encode(compact)
		if err != nil {
			f.Fatal(err)
		}
		payloads = append(payloads, data)
	}
	lw := make([]float64, g.NumCells())
	lw[g.Index(1, 1)] = 5
	lw[g.Index(2, 1)] = 3
	if local, err := BuildLocal(0.8, g, lw, geo.Euclidean, 3.5, &LocalOptions{MassFloor: 0.02}); err == nil {
		data, err := codec.Encode(local)
		if err != nil {
			f.Fatal(err)
		}
		payloads = append(payloads, data)
	} else {
		f.Fatal(err)
	}
	return payloads
}

// FuzzSnapshotCodec drives the channel payload decoder — the layer under the
// checksummed frame, so in production it only ever sees CRC-clean bytes, but
// a disk-corruption race or a hostile shared cache volume can still hand it
// anything. Contract: Decode never panics; every accepted payload re-encodes
// to bytes that decode again (the decoder's validation is at least as strict
// as the encoder's output domain).
func FuzzSnapshotCodec(f *testing.F) {
	for _, p := range fuzzSeedPayloads(f) {
		f.Add(p)
		f.Add(p[:len(p)/2])
		f.Add(p[:len(p)-1])
		flipped := append([]byte(nil), p...)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0xee, 1, 2, 3})

	codec := SnapshotCodec{}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := codec.Decode(ctx, data)
		if err != nil {
			return
		}
		re, err := codec.Encode(v)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		v2, err := codec.Decode(ctx, re)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		re2, err := codec.Encode(v2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("encode/decode did not reach a fixed point")
		}
	})
}

// FuzzLocalRelevance drives the relevance-set selector with arbitrary
// priors, radii and mass floors, seeded with the degenerate shapes the
// dilation has to survive: all mass in one cell, uniform mass, and empty
// (zero-mass) rows. Invariants: the domain is a sorted, unique, nonempty
// subset of the grid; the heaviest prior cell is always in it, along with
// every cell within the radius of that cell; and the parallel construction
// is bit-identical to the sequential one.
func FuzzLocalRelevance(f *testing.F) {
	f.Add(uint8(6), uint16(3000), uint16(100), []byte{0, 0, 0, 0, 0, 0, 0, 9}) // all mass in one cell
	f.Add(uint8(6), uint16(1500), uint16(100), []byte{1})                      // uniform
	f.Add(uint8(5), uint16(200), uint16(400), []byte{3, 0})                    // empty rows, tiny radius
	f.Add(uint8(4), uint16(65535), uint16(1), []byte{7, 1, 0, 0, 0})           // covering radius
	f.Fuzz(func(t *testing.T, granB uint8, radiusU, floorU uint16, wb []byte) {
		gran := 1 + int(granB)%8
		g, err := grid.New(geo.NewSquare(10), gran)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumCells()
		w := make([]float64, n)
		total := 0.0
		for i := range w {
			if len(wb) > 0 {
				w[i] = float64(wb[i%len(wb)])
			}
			total += w[i]
		}
		if total == 0 {
			w[0] = 1 // zero-mass priors are rejected upstream by normalizePrior
		}
		pi, err := normalizePrior(w)
		if err != nil {
			t.Fatalf("normalizePrior: %v", err)
		}
		radius := 0.01 + float64(radiusU)/65535*30 // (0, ~30] km over a 10 km square
		floor := 0.001 + float64(floorU)/65535*0.4 // (0, ~0.4)

		dom := relevanceDomain(g, pi, radius, floor, 1)
		if len(dom) == 0 || len(dom) > n {
			t.Fatalf("domain size %d of %d cells", len(dom), n)
		}
		inDom := make([]bool, n)
		for i, d := range dom {
			if d < 0 || int(d) >= n {
				t.Fatalf("domain cell %d out of range [0, %d)", d, n)
			}
			if i > 0 && dom[i] <= dom[i-1] {
				t.Fatalf("domain not sorted/unique at %d: %v", i, dom)
			}
			inDom[d] = true
		}

		// The heaviest cell (ties to the lower index) always enters the
		// core first, and dilation must pull in everything within the
		// radius of it.
		argmax := 0
		for i, p := range pi {
			if p > pi[argmax] {
				argmax = i
			}
		}
		if !inDom[argmax] {
			t.Fatalf("heaviest cell %d missing from domain %v", argmax, dom)
		}
		centers := g.Centers()
		for i := 0; i < n; i++ {
			if !inDom[i] && centers[argmax].Dist(centers[i]) <= radius {
				t.Fatalf("cell %d within radius %g of heaviest cell %d but excluded", i, radius, argmax)
			}
		}

		par := relevanceDomain(g, pi, radius, floor, -1)
		if len(par) != len(dom) {
			t.Fatalf("parallel domain size %d != sequential %d", len(par), len(dom))
		}
		for i := range dom {
			if par[i] != dom[i] {
				t.Fatalf("parallel domain differs at %d: %d vs %d", i, par[i], dom[i])
			}
		}
	})
}

// FuzzSearchCumGuided checks the guide-table search against the binary
// search on arbitrary rows. The row is up to 256 float64s taken from data,
// used raw (any order, NaN and infinities included) or, when prefix is set,
// as the prefix sums of their magnitudes, the shape of a channel's
// cumulative rows. Contract: guideRow and searchCumGuided never panic, and
// the guided index equals searchCum's for a draw frac*last, for 0, and for
// every entry and its neighbouring floats.
func FuzzSearchCumGuided(f *testing.F) {
	le := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(le(0.25, 0.25, 0.5), true, 0.5)
	f.Add(le(0, 0, 1, 0, 0), true, 0.99)
	f.Add(le(math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64), true, 0.3)
	f.Add(le(0.5, math.Nextafter(1, 2)), false, 0.999)
	f.Add(le(1, 0.5, math.NaN(), math.Inf(1)), false, 0.1)
	f.Fuzz(func(t *testing.T, data []byte, prefix bool, frac float64) {
		n := min(len(data)/8, 256)
		if n == 0 {
			return
		}
		row := make([]float64, n)
		acc := 0.0
		for i := range row {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if prefix {
				acc += math.Abs(v)
				v = acc
			}
			row[i] = v
		}
		guide := make([]int32, n)
		s := guideRow(row, guide)
		check := func(u float64) {
			if got, want := searchCumGuided(row, guide, s, u), searchCum(row, u); got != want {
				t.Fatalf("row %v u=%v: guided %d, binary %d", row, u, got, want)
			}
		}
		if frac >= 0 && frac < 1 {
			check(frac * row[n-1])
		}
		check(0)
		for _, v := range row {
			check(v)
			check(math.Nextafter(v, math.Inf(1)))
			check(math.Nextafter(v, math.Inf(-1)))
		}
	})
}
