// Quickstart: protect a user's location with the multi-step mechanism.
//
// Builds an MSM instance over the synthetic Gowalla/Austin dataset, shows
// how the privacy budget is split across the hierarchical index, and
// sanitizes a handful of locations.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"geoind"
)

func main() {
	// The dataset doubles as the adversary's background knowledge (the
	// prior): users check in at well-defined POIs with known popularity.
	ds := geoind.GowallaSynthetic()
	fmt.Printf("dataset %s: %d check-ins by %d users over %.0fx%.0f km\n\n",
		ds.Name(), ds.Len(), ds.NumUsers(), ds.Region().Width(), ds.Region().Height())

	m, err := geoind.NewMSM(geoind.MSMConfig{
		Eps:         0.5, // total privacy budget (1/km): lower = stronger privacy
		Region:      ds.Region(),
		Granularity: 3,   // each index level splits a cell into 3x3
		Rho:         0.8, // per-level probability of staying in the true cell
		Metric:      geoind.Euclidean,
		PriorPoints: ds.Points(),
		Seed:        42,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("index height:      %d levels\n", m.Height())
	fmt.Printf("budget split:      %.4f\n", m.BudgetSplit())
	fmt.Printf("leaf granularity:  %dx%d cells\n\n", m.LeafGranularity(), m.LeafGranularity())

	// Optional offline phase: pre-solve all channels so that every
	// subsequent report costs only a table lookup and a random draw.
	if err := m.Precompute(); err != nil {
		log.Fatal(err)
	}

	locations := []geoind.Point{
		{X: 3.2, Y: 11.7}, // somewhere in the suburbs
		{X: 10.1, Y: 9.8}, // downtown
		{X: 18.9, Y: 1.2}, // edge of the region
	}
	fmt.Println("true location        reported location    distance (utility loss)")
	for _, x := range locations {
		z, err := m.ReportCtx(context.Background(), x)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("(%6.2f, %6.2f)  ->  (%6.2f, %6.2f)     %.2f km\n", x.X, x.Y, z.X, z.Y, x.Dist(z))
	}

	queries, solves := m.Stats()
	fmt.Printf("\nserved %d reports using %d cached LP solves\n", queries, solves)
}
