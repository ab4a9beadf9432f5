// Package geoind is a pure-Go implementation of utility-preserving, scalable
// location privacy with geo-indistinguishability, reproducing the EDBT 2019
// paper "A Utility-Preserving and Scalable Technique for Protecting Location
// Data with Geo-Indistinguishability" (Ahuja, Ghinita, Shahabi).
//
// Geo-indistinguishability (GeoInd) adapts differential privacy to the
// online location-reporting setting: a mechanism K satisfies eps-GeoInd if
// for all locations x, x' and any output z,
//
//	K(x)(z) <= exp(eps * d(x, x')) * K(x')(z),
//
// so an adversary observing the reported location cannot confidently
// distinguish nearby true locations, regardless of prior knowledge.
//
// The package provides three mechanisms behind one interface:
//
//   - NewPlanarLaplace: the classic planar Laplace mechanism — fast,
//     prior-agnostic, but noisy.
//   - NewOptimal: the optimal mechanism (Bordenabe et al.) — solves a linear
//     program to minimize expected utility loss for a given adversarial
//     prior; exact but expensive beyond small grids.
//   - NewMSM: the paper's Multi-Step Mechanism — applies the optimal
//     mechanism recursively along a hierarchical spatial index, splitting
//     the privacy budget across levels with an analytical model, achieving
//     near-optimal utility at a tiny fraction of the cost.
//
// All randomness is seeded and reproducible. No dependencies beyond the
// standard library; the linear programs are solved by an internal
// structure-exploiting interior-point method.
//
// Quick start:
//
//	ds := geoind.GowallaSynthetic()
//	m, err := geoind.NewMSM(geoind.MSMConfig{
//		Eps:         0.5,
//		Region:      ds.Region(),
//		Granularity: 4,
//		PriorPoints: ds.Points(),
//		Seed:        1,
//	})
//	if err != nil { ... }
//	private, err := m.ReportCtx(ctx, geoind.Point{X: 3.2, Y: 11.7})
//
// Canceling ctx returns ctx.Err() promptly instead of waiting on a cold
// channel solve; pass context.Background() when nothing cancels.
package geoind
