package geoind

import (
	"context"
	"fmt"
	"math/rand/v2"

	"geoind/internal/trajectory"
)

// TraceStep is one released location of a protected trace with its budget
// cost. Fresh indicates the underlying mechanism ran (false means the
// previous release was re-used after a passed prediction test).
type TraceStep = trajectory.Step

// TraceSummary aggregates a protected trace: steps, fresh reports, total
// budget spent and mean Euclidean loss.
type TraceSummary = trajectory.Summary

// PredictiveConfig parameterizes ReportTracePredictive. Theta is the test
// threshold in km; EpsTest the per-test budget (its Laplace noise scale is
// 1/EpsTest, so keep Theta a few multiples of that for informative tests).
type PredictiveConfig struct {
	Theta   float64
	EpsTest float64
}

// ReportTrace protects a trace by running every point through the mechanism
// independently under ctx: total budget = len(points) * mech.Epsilon() by
// the composability property.
func ReportTrace(ctx context.Context, mech Mechanism, points []Point) ([]TraceStep, TraceSummary, error) {
	steps, err := trajectory.Independent(ctx, mech, points)
	if err != nil {
		return nil, TraceSummary{}, err
	}
	sum, err := trajectory.Summarize(points, steps)
	return steps, sum, err
}

// ReportTracePredictive protects a trace with the predictive mechanism of
// Chatzikokolakis et al. (PETS 2014): a cheap eps-test re-releases the
// previous report while the user has not moved beyond Theta, so dwelling
// users spend far less than len(points) * eps. Fresh reports run under ctx.
func ReportTracePredictive(ctx context.Context, mech Mechanism, points []Point, cfg PredictiveConfig, seed uint64) ([]TraceStep, TraceSummary, error) {
	steps, err := trajectory.Predictive(ctx, mech, points, trajectory.PredictiveConfig{
		Theta:   cfg.Theta,
		EpsTest: cfg.EpsTest,
	}, rand.New(rand.NewPCG(seed, 0x9e37)))
	if err != nil {
		return nil, TraceSummary{}, err
	}
	sum, err := trajectory.Summarize(points, steps)
	return steps, sum, err
}

// TraceConfig parameterizes GenerateTraces, the synthetic mobility model
// (anchor dwells + local walks + occasional jumps).
type TraceConfig struct {
	Region     Rect
	Anchors    []Point
	Steps      int
	StayProb   float64
	LocalSigma float64
	JumpProb   float64
	WalkSigma  float64
	Seed       uint64
}

// AdversaryError measures the privacy of released traces empirically: a
// Bayesian attacker with population-level mobility knowledge (the empirical
// prior over a granularity x granularity grid of region) estimates each true
// point from its release by the posterior mean, and the result is the mean
// localization error in km. Larger is better for the user. eps calibrates
// the attacker's likelihood model; use the mechanism's per-report epsilon.
func AdversaryError(region Rect, granularity int, eps float64, traces [][]Point, runs [][]TraceStep) (float64, error) {
	e, err := trajectory.EmpiricalAdversaryError(trajectory.AdversaryConfig{
		Region:      region,
		Granularity: granularity,
		Eps:         eps,
	}, traces, runs)
	if err != nil {
		return 0, fmt.Errorf("geoind: %w", err)
	}
	return e, nil
}

// GenerateTraces produces n synthetic mobility traces; the same config
// always produces the same traces.
func GenerateTraces(n int, cfg TraceConfig) ([][]Point, error) {
	traces, err := trajectory.Generate(n, trajectory.GenConfig{
		Region:     cfg.Region,
		Anchors:    cfg.Anchors,
		Steps:      cfg.Steps,
		StayProb:   cfg.StayProb,
		LocalSigma: cfg.LocalSigma,
		JumpProb:   cfg.JumpProb,
		WalkSigma:  cfg.WalkSigma,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("geoind: %w", err)
	}
	out := make([][]Point, len(traces))
	for i, tr := range traces {
		out[i] = tr.Points
	}
	return out, nil
}
