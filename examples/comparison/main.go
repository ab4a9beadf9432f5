// Side-by-side comparison of the three GeoInd mechanisms.
//
// Runs planar Laplace, the optimal mechanism, and the multi-step mechanism
// at the same privacy budget over the same workload, reporting mean utility
// loss under both metrics of the paper and the time each mechanism needs —
// a miniature of the paper's whole evaluation in one binary.
//
// Run with: go run ./examples/comparison
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"geoind"
)

func main() {
	const (
		eps      = 0.5
		g        = 3 // OPT grid g^2 x g^2 would be ideal but slow; use g for OPT, MSM descends to g^h
		requests = 2000
	)
	ds := geoind.GowallaSynthetic()
	reqs := ds.SampleRequests(requests, 3)

	type entry struct {
		mech  geoind.Mechanism
		build time.Duration
	}
	var entries []entry

	start := time.Now()
	pl, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: eps, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	entries = append(entries, entry{pl, time.Since(start)})

	start = time.Now()
	optm, err := geoind.NewOptimal(geoind.OptimalConfig{
		Eps: eps, Region: ds.Region(), Granularity: g * g, // match MSM's leaf granularity
		PriorPoints: ds.Points(), Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	entries = append(entries, entry{optm, time.Since(start)})

	start = time.Now()
	msm, err := geoind.NewMSM(geoind.MSMConfig{
		Eps: eps, Region: ds.Region(), Granularity: g,
		PriorPoints: ds.Points(), Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := msm.Precompute(); err != nil {
		log.Fatal(err)
	}
	entries = append(entries, entry{msm, time.Since(start)})

	fmt.Printf("budget eps=%.1f, %d requests over %s\n", eps, requests, ds.Name())
	fmt.Printf("MSM: height=%d, leaf %dx%d; OPT grid %dx%d\n\n",
		msm.Height(), msm.LeafGranularity(), msm.LeafGranularity(), g*g, g*g)
	fmt.Println("mechanism  mean d (km)  mean d^2 (km^2)  build+precompute  per-report")

	for _, e := range entries {
		var d, d2 float64
		start := time.Now()
		for _, x := range reqs {
			z, err := e.mech.ReportCtx(context.Background(), x)
			if err != nil {
				log.Fatal(err)
			}
			d += x.Dist(z)
			d2 += x.Dist2(z)
		}
		perReport := time.Since(start) / requests
		fmt.Printf("%-9s  %11.3f  %15.3f  %16s  %10s\n",
			e.mech.Name(), d/requests, d2/requests,
			e.build.Round(time.Millisecond), perReport.Round(time.Microsecond))
	}

	fmt.Println("\nexpected shape (paper §6.2): OPT best utility but costly to build;")
	fmt.Println("MSM within a small factor of OPT at a fraction of the cost; PL cheap but noisy.")
}
