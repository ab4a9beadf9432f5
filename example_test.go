package geoind_test

import (
	"context"
	"fmt"
	"time"

	"geoind"
)

// ExampleNewMSM shows the full setup of the paper's multi-step mechanism:
// the budget allocator decides the index height and per-level budgets from
// eps, the fanout and rho.
func ExampleNewMSM() {
	ds := geoind.YelpSynthetic()
	m, err := geoind.NewMSM(geoind.MSMConfig{
		Eps:         0.9,
		Region:      ds.Region(),
		Granularity: 3,
		Rho:         0.8,
		PriorPoints: ds.Points(),
		Seed:        1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("height:", m.Height())
	fmt.Printf("leaf grid: %dx%d\n", m.LeafGranularity(), m.LeafGranularity())
	split := m.BudgetSplit()
	fmt.Printf("level-1 budget: %.3f of %.1f\n", split[0], m.Epsilon())
	// Output:
	// height: 2
	// leaf grid: 9x9
	// level-1 budget: 0.464 of 0.9
}

// ExampleNewPlanarLaplace demonstrates the prior-agnostic baseline; its
// expected noise radius is 2/eps kilometres.
func ExampleNewPlanarLaplace() {
	pl, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 0.5, Seed: 7})
	if err != nil {
		panic(err)
	}
	z, err := pl.ReportCtx(context.Background(), geoind.Point{X: 10, Y: 10})
	if err != nil {
		panic(err)
	}
	fmt.Println("mechanism:", pl.Name())
	fmt.Println("perturbed:", z != geoind.Point{X: 10, Y: 10})
	// Output:
	// mechanism: PL
	// perturbed: true
}

// ExampleNewBudgeted shows per-user budget accounting: two reports fit in
// the daily budget, the third is refused.
func ExampleNewBudgeted() {
	pl, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: 0.25, Seed: 3})
	if err != nil {
		panic(err)
	}
	b, err := geoind.NewBudgeted(pl, 0.5, 24*time.Hour)
	if err != nil {
		panic(err)
	}
	for i := 1; i <= 3; i++ {
		_, err := b.ReportCtx(context.Background(), "alice", geoind.Point{X: 5, Y: 5})
		fmt.Printf("report %d ok: %v\n", i, err == nil)
	}
	// Output:
	// report 1 ok: true
	// report 2 ok: true
	// report 3 ok: false
}

// ExampleEvaluateUtility measures mean utility loss of a mechanism over a
// check-in workload, the paper's evaluation methodology in three lines.
func ExampleEvaluateUtility() {
	ds := geoind.YelpSynthetic()
	m, err := geoind.NewMSM(geoind.MSMConfig{
		Eps: 0.5, Region: ds.Region(), Granularity: 4,
		PriorPoints: ds.Points(), Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	st, err := geoind.EvaluateUtility(context.Background(), m, ds.SampleRequests(500, 2), geoind.Euclidean)
	if err != nil {
		panic(err)
	}
	fmt.Println("requests:", st.N)
	fmt.Println("loss under 5 km:", st.Mean < 5)
	// Output:
	// requests: 500
	// loss under 5 km: true
}
