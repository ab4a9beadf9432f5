package main

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"geoind/internal/geo"
)

// oraclePercentile is the nearest-rank definition read straight off the
// data: the smallest value v with at least ceil(p/100*n) values <= v.
func oraclePercentile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	for _, v := range s {
		k := 0
		for _, w := range xs {
			if w <= v {
				k++
			}
		}
		if float64(k) >= p/100*float64(len(xs)) {
			return v
		}
	}
	return s[len(s)-1]
}

func TestPercentileMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.IntN(50)) // ties on purpose
		}
		orig := slices.Clone(xs)
		for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 100} {
			if got, want := percentile(xs, p), oraclePercentile(xs, p); got != want {
				t.Errorf("n=%d p=%g: percentile %g, oracle %g", n, p, got, want)
			}
		}
		if !slices.Equal(xs, orig) {
			t.Fatalf("percentile reordered its input")
		}
	}
	if got := percentile([]time.Duration{3, 1, 2}, 50); got != 2 {
		t.Errorf("duration median %v, want 2", got)
	}
	if got := percentile([]float64(nil), 50); got != 0 {
		t.Errorf("empty percentile %g, want 0", got)
	}
}

func TestEpsAuditRejectsMismatches(t *testing.T) {
	charged := map[string]float64{"a": 17, "b": 1.25, "c": 0.25}
	server := map[string]float64{"a": budgetLimit - 17, "b": budgetLimit - 1.25, "c": budgetLimit - 0.25}
	lookup := func(m map[string]float64) func(string) (float64, error) {
		return func(u string) (float64, error) { return m[u], nil }
	}
	if err := auditEps(budgetLimit, charged, lookup(server)); err != nil {
		t.Fatalf("consistent ledger rejected: %v", err)
	}

	over := map[string]float64{"a": server["a"], "b": server["b"] - 1, "c": server["c"]}
	if err := auditEps(budgetLimit, charged, lookup(over)); err == nil {
		t.Error("audit accepted a server that charged more than its responses report")
	}
	free := map[string]float64{"a": server["a"], "b": server["b"], "c": budgetLimit}
	if err := auditEps(budgetLimit, charged, lookup(free)); err == nil {
		t.Error("audit accepted a release the server never charged")
	}
}

func TestChargeChecks(t *testing.T) {
	const eps, epsTest = 1.0, 0.25
	cases := []struct {
		fresh, had bool
		want       float64
	}{
		{true, false, eps},
		{true, true, eps + epsTest},
		{false, true, epsTest},
	}
	for _, c := range cases {
		want, err := wantTraceEps(c.fresh, c.had, eps, epsTest)
		if err != nil || want != c.want {
			t.Errorf("fresh=%v had=%v: want %g, got %g (%v)", c.fresh, c.had, c.want, want, err)
		}
		if err := checkCharge(want, want); err != nil {
			t.Errorf("exact charge rejected: %v", err)
		}
		if err := checkCharge(want+eps, want); err == nil {
			t.Errorf("over-charge of %g accepted", want+eps)
		}
		if err := checkCharge(0, want); err == nil {
			t.Error("free release accepted")
		}
	}
	if _, err := wantTraceEps(false, false, eps, epsTest); err == nil {
		t.Error("memo re-release without a prior release accepted")
	}
}

func TestSameSeedSameBodies(t *testing.T) {
	bodies := func(seed uint64) []byte {
		var all []byte
		for c := range 2 {
			for _, o := range reportOps(seed, c, 500, "", 20, batchFrac) {
				all = append(all, o.body...)
			}
			for _, o := range traceOps(seed, c, 500, "", 20) {
				all = append(all, o.body...)
			}
		}
		return all
	}
	if !bytes.Equal(bodies(7), bodies(7)) {
		t.Error("same seed produced different request bodies")
	}
	if bytes.Equal(bodies(7), bodies(8)) {
		t.Error("different seeds produced identical request bodies")
	}
}

func TestTraceOpsWalkPerUser(t *testing.T) {
	ops := traceOps(3, 1, 5000, "", 20)
	last := make(map[string]geo.Point)
	for _, o := range ops {
		p := o.pts[0]
		if p.X < 0 || p.X > 20 || p.Y < 0 || p.Y > 20 {
			t.Fatalf("step %v outside the region", p)
		}
		if q, ok := last[o.user]; ok && q.Dist(p) > 10*walkSigma {
			t.Fatalf("user %s jumped %g km in one step", o.user, q.Dist(p))
		}
		last[o.user] = p
	}
	for _, o := range traceOps(3, 0, 5000, "", 20) {
		if _, ok := last[o.user]; ok {
			t.Fatalf("connections 0 and 1 share user %s", o.user)
		}
	}
}

func TestLeafCenter(t *testing.T) {
	l := leafGrid{geo.NewSquare(20), 36}
	cell := 20.0 / 36
	if !l.isCenter(geo.Point{X: 19.5 * cell, Y: 0.5 * cell}) {
		t.Error("leaf centre rejected")
	}
	for _, p := range []geo.Point{{X: 19 * cell, Y: 0.5 * cell}, {X: 0.5 * cell, Y: 36.5 * cell}, {X: -0.5 * cell, Y: 0.5 * cell}} {
		if l.isCenter(p) {
			t.Errorf("%v accepted as a leaf centre", p)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 30},
		{id: 3, parent: 1, start: 20, end: 50},  // overlaps id 2
		{id: 4, parent: 1, start: 90, end: 120}, // runs past the parent
	}
	if got := newSpanTree(spans).self(0); got != 100-40-10 {
		t.Errorf("self time %d, want 50", got)
	}
}
