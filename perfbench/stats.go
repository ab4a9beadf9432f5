package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least ceil(p/100 * n) values at or below
// it. xs is not modified. An empty slice yields 0.
func percentile[T int64 | float64 | time.Duration](xs []T, p float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the middle value of xs (the mean of the two middle values for
// an even count). An empty slice yields 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sample is one finished operation: when it ended, counted from the start
// of the run, how long it took, and how many locations it released (0 for a
// failed operation).
type sample struct {
	end, lat time.Duration
	points   int32
}

func latencies(samples []sample) []time.Duration {
	lat := make([]time.Duration, len(samples))
	for i, s := range samples {
		lat[i] = s.lat
	}
	return lat
}

// windowStats cuts a run into one-second windows by completion time and
// reports its less disturbed half: the faster half of the windows by
// successful operations. Other tenants of a shared machine can only slow a
// window down, so this half tracks the program rather than its neighbours.
// The rate is the mean over those windows; p50 and p99 are over all their
// operations together (thousands, so the p99 has well over ten beyond it).
// Released locations per second is that rate times the run's locations per
// successful operation, so the mix of batches in a window adds no spread.
// The last, partial window is dropped.
func windowStats(samples []sample) (okPerS, pointsPerS float64, p50, p99 time.Duration) {
	var end time.Duration
	var okAll, ptsAll float64
	for _, s := range samples {
		end = max(end, s.end)
		if s.points > 0 {
			okAll++
			ptsAll += float64(s.points)
		}
	}
	type window struct {
		ok  int
		lat []time.Duration
	}
	wins := make([]window, max(int(end/time.Second), 1))
	for _, s := range samples {
		if w := int(s.end / time.Second); w < len(wins) {
			if s.points > 0 {
				wins[w].ok++
			}
			wins[w].lat = append(wins[w].lat, s.lat)
		}
	}
	slices.SortFunc(wins, func(a, b window) int { return b.ok - a.ok })
	wins = wins[:max(len(wins)/2, 1)]
	var lat []time.Duration
	for _, w := range wins {
		okPerS += float64(w.ok) / float64(len(wins))
		lat = append(lat, w.lat...)
	}
	return okPerS, okPerS * ptsAll / max(okAll, 1), percentile(lat, 50), percentile(lat, 99)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// wantTraceEps is the exact ε a /v1/trace step must charge: the first step of
// a session pays eps for its fresh report, a later fresh step pays the
// prediction test plus the report, and a re-released memo pays only the test.
// A memo re-release on a session with no prior release is an error.
func wantTraceEps(fresh, hadPrior bool, eps, epsTest float64) (float64, error) {
	switch {
	case fresh && !hadPrior:
		return eps, nil
	case fresh:
		return epsTest + eps, nil
	case hadPrior:
		return epsTest, nil
	}
	return 0, fmt.Errorf("memo re-release on a session with no prior release")
}

// checkCharge compares a response's eps_spent with the exact charge its
// request must pay. Less is a free release, more an over-charge.
func checkCharge(got, want float64) error {
	switch {
	case got < want:
		return fmt.Errorf("free release: charged %g, want %g", got, want)
	case got > want:
		return fmt.Errorf("over-charge: charged %g, want %g", got, want)
	}
	return nil
}

// auditEps is the ε audit run after traffic stops: for every user, the sum
// of eps_spent over its successful responses must equal limit minus the
// remaining budget the server reports. All charges are small multiples of
// 1/4, so both sides are exact in float64 and compare with ==.
func auditEps(limit float64, charged map[string]float64, remaining func(user string) (float64, error)) error {
	users := make([]string, 0, len(charged))
	for u := range charged {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		rem, err := remaining(u)
		if err != nil {
			return fmt.Errorf("eps audit: user %s: %w", u, err)
		}
		if spent := limit - rem; spent != charged[u] {
			return fmt.Errorf("eps audit: user %s: server charged %g, responses report %g", u, spent, charged[u])
		}
	}
	return nil
}
