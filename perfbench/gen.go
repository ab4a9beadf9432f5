package main

import (
	"math"
	"math/rand/v2"
	"strconv"

	"geoind/internal/geo"
)

// Traffic shape. Users are Zipf-ranked (a few heavy hitters, a long tail) and
// locations follow a hotspot mixture, the same shape cmd/loadgen uses; unlike
// loadgen, every body is generated from the workload seed before the timed
// phase, so one seed always sends byte-identical traffic.
const (
	numUsers  = 1000
	zipfS     = 1.3
	numHot    = 5
	hotFrac   = 0.8
	batchFrac = 0.2
	batchSize = 16
	walkSigma = 0.2 // km per trace step

	hotspotSeed = 0x9e0
)

// class is the kind of request an op sends.
type class uint8

const (
	classReport class = iota
	classBatch
	classTrace
	numClasses
)

var (
	classNames = [numClasses]string{"report", "batch", "trace"}
	classPaths = [numClasses]string{"/v1/report", "/v1/report:batch", "/v1/trace"}
)

// op is one pre-generated request: its body and the true locations it
// carries, kept to score the released ones.
type op struct {
	class class
	user  string
	body  []byte
	pts   []geo.Point
}

type hotspot struct{ x, y, sigma float64 }

// gen draws users and locations for one connection. The hotspots are part of
// the workload, not of its seed: every seed and connection shares the same
// places, so a seed changes which requests are sent but not the spatial
// shape that utility and channel use depend on.
type gen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	side float64
	hot  []hotspot
}

func newGen(seed, stream uint64, side float64) *gen {
	hr := rand.New(rand.NewPCG(hotspotSeed, 0))
	g := &gen{side: side}
	for range numHot {
		g.hot = append(g.hot, hotspot{
			x:     side * (0.15 + 0.7*hr.Float64()),
			y:     side * (0.15 + 0.7*hr.Float64()),
			sigma: side * (0.02 + 0.03*hr.Float64()),
		})
	}
	g.rng = rand.New(rand.NewPCG(seed, stream+1))
	g.zipf = rand.NewZipf(g.rng, zipfS, 1, numUsers-1)
	return g
}

func (g *gen) clamp(v float64) float64 { return math.Min(math.Max(v, 0), g.side) }

func (g *gen) point() geo.Point {
	if g.rng.Float64() < hotFrac {
		h := g.hot[g.rng.IntN(len(g.hot))]
		return geo.Point{X: g.clamp(h.x + g.rng.NormFloat64()*h.sigma), Y: g.clamp(h.y + g.rng.NormFloat64()*h.sigma)}
	}
	return geo.Point{X: g.rng.Float64() * g.side, Y: g.rng.Float64() * g.side}
}

func appendEntry(b []byte, user string, p geo.Point) []byte {
	b = append(b, `{"user_id":"`...)
	b = append(b, user...)
	b = append(b, `","x":`...)
	b = strconv.AppendFloat(b, p.X, 'g', -1, 64)
	b = append(b, `,"y":`...)
	b = strconv.AppendFloat(b, p.Y, 'g', -1, 64)
	return append(b, '}')
}

// reportOps generates n ops for connection conn: single reports, and with
// probability frac a batch of batchSize points of one user. User IDs carry
// tag so phases of one run can use disjoint users.
func reportOps(seed uint64, conn, n int, tag string, side, frac float64) []op {
	g := newGen(seed, uint64(conn), side)
	ops := make([]op, n)
	for i := range ops {
		user := tag + "u" + strconv.FormatUint(g.zipf.Uint64(), 10)
		if g.rng.Float64() < frac {
			o := op{class: classBatch, user: user, body: []byte{'['}}
			for j := range batchSize {
				p := g.point()
				if j > 0 {
					o.body = append(o.body, ',')
				}
				o.body = appendEntry(o.body, user, p)
				o.pts = append(o.pts, p)
			}
			o.body = append(o.body, ']')
			ops[i] = o
			continue
		}
		p := g.point()
		ops[i] = op{class: classReport, user: user, body: appendEntry(nil, user, p), pts: []geo.Point{p}}
	}
	return ops
}

// traceOps generates n /v1/trace steps for connection conn. The connection
// owns its users outright, and each user follows one random walk across the
// whole sequence, so a user's steps arrive in walk order on one connection.
func traceOps(seed uint64, conn, n int, tag string, side float64) []op {
	g := newGen(seed, uint64(conn), side)
	pos := make(map[uint64]geo.Point)
	ops := make([]op, n)
	prefix := tag + "c" + strconv.Itoa(conn) + "u"
	for i := range ops {
		k := g.zipf.Uint64()
		p, ok := pos[k]
		if ok {
			p = geo.Point{X: g.clamp(p.X + g.rng.NormFloat64()*walkSigma), Y: g.clamp(p.Y + g.rng.NormFloat64()*walkSigma)}
		} else {
			p = g.point()
		}
		pos[k] = p
		user := prefix + strconv.FormatUint(k, 10)
		ops[i] = op{class: classTrace, user: user, body: appendEntry(nil, user, p), pts: []geo.Point{p}}
	}
	return ops
}

// classOps generates n ops of one class for connection conn.
func classOps(c class, seed uint64, conn, n int, tag string, side float64) []op {
	switch c {
	case classTrace:
		return traceOps(seed, conn, n, tag, side)
	case classBatch:
		return reportOps(seed, conn, n, tag, side, 1)
	}
	return reportOps(seed, conn, n, tag, side, 0)
}
