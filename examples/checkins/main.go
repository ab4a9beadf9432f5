// Geosocial check-in protection with per-user budget accounting.
//
// A geosocial app lets users "check in" during the day. Each check-in leaks
// location information, and by the composability property of GeoInd (§2.2 of
// the paper) the leakage adds up: n reports at budget eps are equivalent to
// one report at n*eps. This example simulates a day of check-ins where every
// user holds a daily budget; each check-in spends a fixed slice of it
// through a shared MSM instance, and the app stops sanitizing (refuses the
// check-in) once a user's budget is exhausted.
//
// Run with: go run ./examples/checkins
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"geoind"
)

const (
	dailyBudget   = 1.0   // per-user daily epsilon
	perReportEps  = 0.25  // budget spent per check-in
	simulatedDay  = 30000 // number of check-in attempts across all users
	trackedUsers  = 5000
	reportsPerDay = int(dailyBudget / perReportEps)
)

func main() {
	ds := geoind.GowallaSynthetic()

	// One shared mechanism: the channel cache serves every user, and each
	// report consumes perReportEps from the reporting user's daily budget.
	m, err := geoind.NewMSM(geoind.MSMConfig{
		Eps: perReportEps, Region: ds.Region(), Granularity: 3,
		PriorPoints: ds.Points(), Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("per-report eps=%.2f, daily budget=%.2f => %d check-ins/user/day\n",
		perReportEps, dailyBudget, reportsPerDay)
	fmt.Printf("MSM: height=%d, split=%.3f, leaf grid %dx%d\n\n",
		m.Height(), m.BudgetSplit(), m.LeafGranularity(), m.LeafGranularity())

	spent := make(map[int]float64, trackedUsers)
	rng := rand.New(rand.NewPCG(7, 8))
	var served, refused int
	var totalLoss float64

	for i := 0; i < simulatedDay; i++ {
		rec := ds.CheckIn(rng.IntN(ds.Len()))
		if spent[rec.User]+perReportEps > dailyBudget+1e-9 {
			refused++
			continue
		}
		z, err := m.ReportCtx(context.Background(), rec.Loc)
		if err != nil {
			log.Fatal(err)
		}
		spent[rec.User] += perReportEps
		served++
		totalLoss += rec.Loc.Dist(z)
	}

	fmt.Printf("check-in attempts: %d\n", simulatedDay)
	fmt.Printf("served:            %d (mean utility loss %.2f km)\n", served, totalLoss/float64(served))
	fmt.Printf("refused (budget):  %d\n", refused)

	// Budget accounting invariant: nobody exceeded the daily budget. Ties go
	// to the lowest user id, so the line does not depend on map order.
	worstUser, worst := -1, 0.0
	for u, s := range spent {
		if s > worst || s == worst && u < worstUser {
			worst, worstUser = s, u
		}
	}
	fmt.Printf("max daily spend:   %.2f (user %d) <= %.2f\n", worst, worstUser, dailyBudget)

	queries, solves := m.Stats()
	fmt.Printf("\nshared channel cache: %d reports, only %d LP solves\n", queries, solves)
}
