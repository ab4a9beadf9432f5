// Trajectory protection: a day of movement under a privacy budget.
//
// A fitness app samples the user's location every few minutes. Reporting
// each point independently spends eps per point — an 8-hour trace at one
// point per minute burns 480x the single-report budget. The predictive
// mechanism (Chatzikokolakis et al., PETS 2014) exploits the fact that
// people dwell: a cheap private test re-releases the previous report while
// the user hasn't moved beyond a threshold, so budget drains only when the
// user actually goes somewhere.
//
// Run with: go run ./examples/trajectory
package main

import (
	"context"
	"fmt"
	"log"

	"geoind"
)

func main() {
	region := geoind.Square(20)
	traces, err := geoind.GenerateTraces(3, geoind.TraceConfig{
		Region: region,
		Anchors: []geoind.Point{
			{X: 5, Y: 5},   // home
			{X: 15, Y: 15}, // office
			{X: 10, Y: 3},  // gym
		},
		Steps:      480, // one sample per minute for 8 hours
		StayProb:   0.92,
		LocalSigma: 0.05,
		JumpProb:   0.01,
		WalkSigma:  0.4,
		Seed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}

	const epsPerReport = 1.0
	fmt.Printf("3 users, 480 samples each, eps=%.1f per fresh report\n\n", epsPerReport)
	fmt.Println("user  strategy     total eps  fresh  mean loss (km)")
	for u, trace := range traces {
		pl, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: epsPerReport, Seed: uint64(100 + u)})
		if err != nil {
			log.Fatal(err)
		}
		_, ind, err := geoind.ReportTrace(context.Background(), pl, trace)
		if err != nil {
			log.Fatal(err)
		}
		_, pred, err := geoind.ReportTracePredictive(context.Background(), pl, trace, geoind.PredictiveConfig{
			Theta:   4.0,  // km: "have I left the neighbourhood?"
			EpsTest: 0.25, // a quarter of a report per test
		}, uint64(200+u))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d  independent  %9.1f  %5d  %14.2f\n", u, ind.TotalSpent, ind.Fresh, ind.MeanLoss)
		fmt.Printf("      predictive   %9.1f  %5d  %14.2f\n", pred.TotalSpent, pred.Fresh, pred.MeanLoss)
	}
	fmt.Println("\nthe predictive mechanism spends a fraction of the budget at comparable")
	fmt.Println("(often better) utility, because re-released reports have no fresh noise.")
}
