package geoind

import (
	"context"
	"io"
	"math/rand/v2"

	"geoind/internal/dataset"
)

// CheckIn is one user location report in a dataset.
type CheckIn struct {
	// User is a dense user identifier.
	User int
	// Loc is the check-in location in planar kilometre coordinates.
	Loc Point
}

// Dataset is a collection of check-ins over a square planar region, used to
// build adversarial priors and query workloads.
type Dataset struct {
	d *dataset.Dataset
}

// GowallaSynthetic returns the deterministic substitute for the paper's
// Gowalla/Austin dataset (265,571 check-ins, 12,155 users, 20x20 km^2).
func GowallaSynthetic() *Dataset { return &Dataset{d: dataset.SyntheticGowalla()} }

// YelpSynthetic returns the deterministic substitute for the paper's
// Yelp/Las Vegas dataset (81,201 check-ins, 7,581 users, 20x20 km^2).
func YelpSynthetic() *Dataset { return &Dataset{d: dataset.SyntheticYelp()} }

// ReadDatasetCSV loads check-ins in "user,x_km,y_km" format. side may be 0
// when the file carries the metadata header written by WriteCSV.
func ReadDatasetCSV(r io.Reader, name string, side float64) (*Dataset, error) {
	d, err := dataset.ReadCSV(r, name, side)
	if err != nil {
		return nil, err
	}
	return &Dataset{d: d}, nil
}

// Name returns the dataset identifier.
func (ds *Dataset) Name() string { return ds.d.Name }

// Region returns the planar extent of the dataset.
func (ds *Dataset) Region() Rect { return ds.d.Region() }

// NumUsers returns the number of distinct users.
func (ds *Dataset) NumUsers() int { return ds.d.NumUsers }

// Len returns the number of check-ins.
func (ds *Dataset) Len() int { return len(ds.d.CheckIns) }

// CheckIn returns record i.
func (ds *Dataset) CheckIn(i int) CheckIn {
	c := ds.d.CheckIns[i]
	return CheckIn{User: c.User, Loc: c.Loc}
}

// Points returns all check-in locations.
func (ds *Dataset) Points() []Point { return ds.d.Points() }

// SampleRequests draws n check-in locations uniformly at random with the
// given seed — the paper's query workload.
func (ds *Dataset) SampleRequests(n int, seed uint64) []Point {
	return ds.d.SampleRequests(n, rand.New(rand.NewPCG(seed, 0x5eed)))
}

// WriteCSV serializes the dataset with a metadata header.
func (ds *Dataset) WriteCSV(w io.Writer) error { return ds.d.WriteCSV(w) }

// UtilityStats summarizes per-request utility loss.
type UtilityStats struct {
	// N is the number of requests evaluated.
	N int
	// Mean is the average loss in the metric's unit.
	Mean float64
	// Max is the worst observed loss.
	Max float64
}

// EvaluateUtility runs every request through the mechanism under ctx and
// measures the utility loss between true and reported locations under the
// metric.
func EvaluateUtility(ctx context.Context, m Mechanism, requests []Point, metric Metric) (UtilityStats, error) {
	var st UtilityStats
	for _, x := range requests {
		z, err := m.ReportCtx(ctx, x)
		if err != nil {
			return st, err
		}
		loss := metric.Loss(x, z)
		st.N++
		st.Mean += loss
		if loss > st.Max {
			st.Max = loss
		}
	}
	if st.N > 0 {
		st.Mean /= float64(st.N)
	}
	return st, nil
}
