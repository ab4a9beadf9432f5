// POI search under location obfuscation — the paper's motivating workload.
//
// A user asks for the nearest restaurant, but only the privacy-preserving
// location reaches the server. The server answers relative to the reported
// point, so the user may be routed to a farther POI than the true nearest
// one. This example measures that regret — the extra distance travelled —
// for the planar Laplace baseline and for MSM at the same privacy budget,
// and shows the d^2 effect too: how much larger a search radius the user
// must request to keep the true nearest POI in the result set.
//
// Run with: go run ./examples/poisearch
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"geoind"
)

func main() {
	ds := geoind.YelpSynthetic()
	pois := dedupe(ds.Points()) // the restaurant directory
	fmt.Printf("POI directory: %d distinct places in %s\n\n", len(pois), ds.Name())

	users := ds.SampleRequests(500, 7)

	for _, eps := range []float64{0.1, 0.5} {
		msm, err := geoind.NewMSM(geoind.MSMConfig{
			Eps: eps, Region: ds.Region(), Granularity: 4,
			PriorPoints: ds.Points(), Seed: 11,
		})
		if err != nil {
			log.Fatal(err)
		}
		pl, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: eps, Seed: 11})
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("eps = %.1f\n", eps)
		fmt.Println("  mechanism  mean regret (km)  p95 regret (km)  radius factor")
		for _, m := range []geoind.Mechanism{msm, pl} {
			regrets := make([]float64, 0, len(users))
			radius := make([]float64, 0, len(users))
			for _, x := range users {
				z, err := m.ReportCtx(context.Background(), x)
				if err != nil {
					log.Fatal(err)
				}
				// The user stands at a POI (check-ins happen at POIs), so
				// the interesting target is the nearest *other* place.
				trueNearest := nearestOther(pois, x)
				served := nearestOther(pois, z) // what the server returns
				regret := x.Dist(served) - x.Dist(trueNearest)
				regrets = append(regrets, regret)
				// Radius the user must query around z to cover the true
				// nearest POI, relative to the non-private radius.
				need := z.Dist(trueNearest)
				have := math.Max(x.Dist(trueNearest), 1e-9)
				radius = append(radius, need/have)
			}
			fmt.Printf("  %-9s  %16.3f  %15.3f  %13.1fx\n",
				m.Name(), mean(regrets), p95(regrets), mean(radius))
		}
		fmt.Println()
	}
}

// dedupe collapses repeated check-ins at the same POI coordinates.
func dedupe(pts []geoind.Point) []geoind.Point {
	seen := make(map[geoind.Point]bool, len(pts))
	out := pts[:0:0]
	for _, p := range pts {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// nearestOther returns the closest POI to q at a strictly positive distance
// (linear scan: the directory is small and this example is about privacy,
// not indexing).
func nearestOther(pois []geoind.Point, q geoind.Point) geoind.Point {
	var best geoind.Point
	bestD := math.Inf(1)
	for _, p := range pois {
		if d := q.Dist(p); d > 0 && d < bestD {
			best, bestD = p, d
		}
	}
	return best
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func p95(v []float64) float64 {
	sorted := append([]float64(nil), v...)
	for i := 1; i < len(sorted); i++ { // insertion sort: small n
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[int(0.95*float64(len(sorted)-1))]
}
