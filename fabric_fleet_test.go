package geoind_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geoind"
	"geoind/internal/channel"
	"geoind/internal/core"
	"geoind/internal/server"
)

// fleet is an in-process 2..n-replica channel fabric: each replica is a real
// MSM joined by -peers-equivalent config, served over a real TCP listener so
// remote snapshot fetches cross an actual HTTP boundary.
type fleet struct {
	msms    []*geoind.MSM
	urls    []string
	servers []*http.Server
}

func startFleet(tb testing.TB, n int, eps float64) *fleet {
	tb.Helper()
	f := &fleet{}
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		lns[i] = ln
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		m, err := geoind.NewMSM(geoind.MSMConfig{
			Eps: eps, Region: geoind.Square(20), Granularity: 3, Seed: 7,
			Fabric: &geoind.FabricConfig{
				Peers: f.urls, Self: f.urls[i],
				HedgeDelay:   10 * time.Millisecond,
				FetchTimeout: 2 * time.Second,
				FetchRetries: 2,
				FetchBackoff: 10 * time.Millisecond,
			},
		})
		if err != nil {
			tb.Fatal(err)
		}
		srv, err := server.New(m, nil, geoind.Square(20))
		if err != nil {
			tb.Fatal(err)
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(lns[i]) //nolint:errcheck // closed via fleet.stop
		f.msms = append(f.msms, m)
		f.servers = append(f.servers, hs)
	}
	tb.Cleanup(f.stop)
	return f
}

func (f *fleet) stop() {
	for _, hs := range f.servers {
		hs.Close()
	}
}

// sweep reports a grid of points covering the whole region through one
// replica, failing the test on any query error.
func sweep(tb testing.TB, m *geoind.MSM, step float64) {
	tb.Helper()
	for x := 0.3; x < 20; x += step {
		for y := 0.3; y < 20; y += step {
			if _, err := m.Report(geoind.Point{X: x, Y: y}); err != nil {
				tb.Fatalf("report (%g, %g): %v", x, y, err)
			}
		}
	}
}

// uniqueChannelCount precomputes an isolated MSM with the same mechanism
// configuration and returns its LP-solve count — the number of distinct
// channels the configuration needs.
func uniqueChannelCount(tb testing.TB, eps float64) int64 {
	tb.Helper()
	ref, err := geoind.NewMSM(geoind.MSMConfig{
		Eps: eps, Region: geoind.Square(20), Granularity: 3, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := ref.Precompute(); err != nil {
		tb.Fatal(err)
	}
	return ref.StoreStats().Misses
}

// TestFleetExactlyOnceSolves: a 2-replica fabric fleet precomputes and serves
// cold traffic with each unique channel LP-solved exactly once fleet-wide,
// replicas pulling non-owned channels from their owner over HTTP.
func TestFleetExactlyOnceSolves(t *testing.T) {
	const eps = 2.4 // height 3: 91 unique channels
	want := uniqueChannelCount(t, eps)
	f := startFleet(t, 2, eps)

	for i, m := range f.msms {
		if err := m.Precompute(); err != nil {
			t.Fatalf("replica %d precompute: %v", i, err)
		}
	}
	// Cold traffic across the full domain on both replicas: every channel on
	// every descent path is demanded at both, so each replica ends up with
	// the full set — owned ones solved, the rest fetched.
	for _, m := range f.msms {
		sweep(t, m, 0.7)
	}

	var fleetSolves, remoteHits int64
	for i, m := range f.msms {
		misses := m.StoreStats().Misses
		if misses == 0 {
			t.Errorf("replica %d solved nothing; ownership is degenerate", i)
		}
		fleetSolves += misses
		st := m.MechStats().Fabric
		if st == nil {
			t.Fatalf("replica %d reports no fabric", i)
		}
		for _, tier := range st.Tiers {
			if tier.Name == "remote" {
				remoteHits += tier.Hits
			}
		}
		if st.Remote != nil && st.Remote.Fallbacks != 0 {
			t.Errorf("replica %d fell back to %d local solves with a healthy fleet", i, st.Remote.Fallbacks)
		}
	}
	if fleetSolves != want {
		t.Errorf("fleet solved %d channels, want exactly %d", fleetSolves, want)
	}
	if remoteHits == 0 {
		t.Error("no remote-tier hits: replicas never fetched from each other")
	}
}

// TestFleetOwnerLossFallback: when the owner of part of the key space
// disappears mid-flight, the survivor answers every query by degrading to
// local solves — availability costs extra solves, never errors.
func TestFleetOwnerLossFallback(t *testing.T) {
	const eps = 2.4
	f := startFleet(t, 2, eps)
	for i, m := range f.msms {
		if err := m.Precompute(); err != nil {
			t.Fatalf("replica %d precompute: %v", i, err)
		}
	}
	before := f.msms[0].StoreStats().Misses

	// Kill replica 1's HTTP face; its MSM object stays alive but replica 0
	// can no longer reach it.
	f.servers[1].Close()

	sweep(t, f.msms[0], 0.7)

	after := f.msms[0].StoreStats().Misses
	if after <= before {
		t.Errorf("survivor solves went %d -> %d; expected local re-solves of the dead owner's channels", before, after)
	}
	st := f.msms[0].MechStats().Fabric
	if st == nil || st.Remote == nil {
		t.Fatal("survivor reports no remote fabric stats")
	}
	if st.Remote.Fallbacks == 0 {
		t.Error("no fallbacks recorded despite the dead owner")
	}
}

// TestFleetFlappingPeerSingleBudgetCharge: a flapping remote peer (errors,
// garbage, truncated frames) costs retries and fallback solves — but each
// report still charges the privacy-budget ledger exactly once, and every
// request succeeds.
func TestFleetFlappingPeerSingleBudgetCharge(t *testing.T) {
	var calls atomic.Int64
	flap := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) % 3 {
		case 0:
			http.Error(w, "transient", http.StatusInternalServerError)
		case 1:
			w.Write([]byte("GICH garbage that is not a snapshot frame"))
		default:
			w.Write([]byte{0x47, 0x49}) // truncated
		}
	}))
	defer flap.Close()

	// Which channels the flapping peer owns depends on both random ports, so
	// the report points come from the ring: re-listen until the peer owns a
	// channel of the first two levels, then report where the descent is
	// bound to touch one.
	var (
		m   *geoind.MSM
		pts []geoind.Point
	)
	for attempt := 0; pts == nil; attempt++ {
		if attempt == 32 {
			t.Fatal("flapping peer owned no channel of the first two levels on any of 32 ports")
		}
		selfLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer selfLn.Close()
		self := "http://" + selfLn.Addr().String()
		m, err = geoind.NewMSM(geoind.MSMConfig{
			Eps: 0.8, Region: geoind.Square(20), Granularity: 3, Seed: 7,
			Fabric: &geoind.FabricConfig{
				Peers: []string{self, flap.URL}, Self: self,
				HedgeDelay:   5 * time.Millisecond,
				FetchTimeout: time.Second,
				FetchRetries: 1,
				FetchBackoff: time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		pts = flapOwnedReportPoints(t, m, 20)
	}
	const limit = 100.0
	ledger, err := server.NewLedger(limit, time.Hour, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(m, ledger, geoind.Square(20))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	reports := len(pts)
	for i, p := range pts {
		body := fmt.Sprintf(`{"user_id":"alice","x":%g,"y":%g}`, p.X, p.Y)
		resp, err := http.Post(ts.URL+"/v1/report", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}

	want := limit - float64(reports)*m.Epsilon()
	if got := ledger.Remaining("alice"); math.Abs(got-want) > 1e-9 {
		t.Errorf("remaining budget %g, want %g: flapping remote changed the charge", got, want)
	}
	st := m.MechStats().Fabric
	if st == nil || st.Remote == nil {
		t.Fatal("no remote fabric stats")
	}
	if st.Remote.Fallbacks == 0 && st.Remote.Retries == 0 {
		t.Error("flapping peer was never actually exercised")
	}
	if calls.Load() == 0 {
		t.Error("flapping peer received no requests")
	}
}

// flapOwnedReportPoints returns n report points whose descents touch a
// channel m's replica does not own (in a two-replica fleet: one its peer
// owns), or nil when the peer owns no channel of the first two levels. Every
// report descends through the root channel, so when the peer owns it any
// points do; otherwise the points cycle over the centres of the level-1 cells
// whose channels the peer owns, where the root draw stays with probability
// about rho. The channel keys are enumerated by a fabric-free twin of m's
// configuration, whose precompute asks its Owns hook about every key.
func flapOwnedReportPoints(t *testing.T, m *geoind.MSM, n int) []geoind.Point {
	t.Helper()
	var keys []channel.Key
	twin, err := core.New(core.Config{
		Eps: 0.8, G: 3, Region: geoind.Square(20),
		Owns: func(k channel.Key) bool {
			keys = append(keys, k)
			return false
		},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.PrecomputeCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The twin must derive m's keys: m rejects a foreign key as unknown.
	if _, err := m.ChannelSnapshot(context.Background(), keys[0], false); !errors.Is(err, channel.ErrNotCached) {
		t.Fatalf("twin root key %v: snapshot err %v, want ErrNotCached", keys[0], err)
	}
	var pts []geoind.Point
	for _, k := range keys {
		switch {
		case m.OwnsChannel(k) || k.Level > 1:
		case k.Level == 0:
			pts = nil
			for i := 0; i < n; i++ {
				pts = append(pts, geoind.Point{X: float64(i) + 0.5, Y: float64(n-i) - 0.5})
			}
			return pts
		default:
			pts = append(pts, twin.Hierarchy().LevelGrid(1).Center(k.Cell))
		}
	}
	if len(pts) == 0 {
		return nil
	}
	for i := len(pts); i < n; i++ {
		pts = append(pts, pts[i%len(pts)])
	}
	return pts
}
