// Command geoind sanitizes locations from the command line: it reads "x y"
// coordinate pairs (planar km) from arguments or stdin, runs them through
// the selected GeoInd mechanism, and prints the privacy-preserving reported
// locations.
//
// Examples:
//
//	geoind -mechanism msm -eps 0.5 -g 4 -dataset gowalla -loc "3.2 11.7"
//	echo "3.2 11.7" | geoind -mechanism pl -eps 0.3
//	geoind -mechanism msm -eps 0.5 -g 4 -dataset yelp -info
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"geoind"
)

func main() {
	mech := flag.String("mechanism", "msm", "mechanism: msm, pl or opt")
	eps := flag.Float64("eps", 0.5, "privacy budget epsilon (1/km)")
	g := flag.Int("g", 4, "grid granularity (fanout per level for msm)")
	rho := flag.Float64("rho", 0.8, "per-level same-cell probability target (msm)")
	side := flag.Float64("side", 20, "region side length in km (ignored with -dataset)")
	ds := flag.String("dataset", "", "prior dataset: gowalla, yelp, or a CSV path")
	seed := flag.Uint64("seed", 1, "RNG seed")
	loc := flag.String("loc", "", `single location to sanitize, as "x y"; otherwise reads stdin`)
	metric := flag.String("metric", "euclidean", "utility metric: euclidean or squared")
	info := flag.Bool("info", false, "print mechanism details (budget split, height) and exit")
	flag.Parse()

	// Ctrl-C cancels an in-flight cold report (the first report may trigger
	// LP solves) instead of leaving the process stuck until kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := realMain(ctx, *mech, *eps, *g, *rho, *side, *ds, *seed, *loc, *metric, *info); err != nil {
		fmt.Fprintln(os.Stderr, "geoind:", err)
		os.Exit(1)
	}
}

func realMain(ctx context.Context, mechName string, eps float64, g int, rho, side float64, dsName string, seed uint64, loc, metricName string, info bool) error {
	var m geoind.Metric
	switch metricName {
	case "euclidean":
		m = geoind.Euclidean
	case "squared":
		m = geoind.SquaredEuclidean
	default:
		return fmt.Errorf("unknown metric %q", metricName)
	}

	region := geoind.Square(side)
	var points []geoind.Point
	switch dsName {
	case "":
	case "gowalla":
		d := geoind.GowallaSynthetic()
		region, points = d.Region(), d.Points()
	case "yelp":
		d := geoind.YelpSynthetic()
		region, points = d.Region(), d.Points()
	default:
		f, err := os.Open(dsName)
		if err != nil {
			return err
		}
		defer f.Close()
		d, err := geoind.ReadDatasetCSV(f, dsName, side)
		if err != nil {
			return err
		}
		region, points = d.Region(), d.Points()
	}

	var mech geoind.Mechanism
	switch mechName {
	case "msm":
		msm, err := geoind.NewMSM(geoind.MSMConfig{
			Eps: eps, Region: region, Granularity: g, Rho: rho,
			Metric: m, PriorPoints: points, Seed: seed,
		})
		if err != nil {
			return err
		}
		if info {
			fmt.Printf("mechanism:        MSM\n")
			fmt.Printf("total budget:     %g\n", msm.Epsilon())
			fmt.Printf("index height:     %d\n", msm.Height())
			fmt.Printf("budget split:     %v\n", msm.BudgetSplit())
			fmt.Printf("leaf granularity: %dx%d\n", msm.LeafGranularity(), msm.LeafGranularity())
			return nil
		}
		mech = msm
	case "pl":
		pl, err := geoind.NewPlanarLaplace(geoind.LaplaceConfig{Eps: eps, Seed: seed})
		if err != nil {
			return err
		}
		if info {
			fmt.Printf("mechanism:    PL\ntotal budget: %g\nmean noise:   %g km\n", eps, 2/eps)
			return nil
		}
		mech = pl
	case "opt":
		o, err := geoind.NewOptimal(geoind.OptimalConfig{
			Eps: eps, Region: region, Granularity: g,
			Metric: m, PriorPoints: points, Seed: seed,
		})
		if err != nil {
			return err
		}
		if info {
			fmt.Printf("mechanism:     OPT\ntotal budget:  %g\nexpected loss: %g %s\ngeoind excess: %g\n",
				eps, o.ExpectedLoss(), m.Unit(), o.VerifyGeoInd())
			return nil
		}
		mech = o
	default:
		return fmt.Errorf("unknown mechanism %q", mechName)
	}

	report := func(line string) error {
		var x geoind.Point
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "%f %f", &x.X, &x.Y); err != nil {
			return fmt.Errorf("parse %q: want \"x y\": %w", line, err)
		}
		z, err := mech.ReportCtx(ctx, x)
		if err != nil {
			return err
		}
		fmt.Printf("%.6f %.6f\n", z.X, z.Y)
		return nil
	}

	if loc != "" {
		return report(loc)
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		if err := report(sc.Text()); err != nil {
			return err
		}
	}
	return sc.Err()
}
