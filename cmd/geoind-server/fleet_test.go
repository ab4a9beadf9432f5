package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"geoind"
	"geoind/internal/server"
)

// TestFleetSmoke is the two-process fleet gate (`make fleet-smoke`): it
// builds the real geoind-server binary, starts two replicas that share
// nothing but the network (distinct cache dirs), and asserts the fabric's
// two load-bearing properties end to end:
//
//  1. every unique channel is LP-solved exactly once fleet-wide — the sum of
//     channel-cache misses across both replicas equals the solve count of an
//     isolated single-process precompute with the same configuration;
//  2. killing one replica costs only latency: the survivor serves the full
//     key space with zero 5xx responses, locally re-solving the dead owner's
//     channels.
//
// Guarded by GEOIND_FLEET_SMOKE=1 because it builds a binary and runs two
// OS processes.
func TestFleetSmoke(t *testing.T) {
	if os.Getenv("GEOIND_FLEET_SMOKE") != "1" {
		t.Skip("set GEOIND_FLEET_SMOKE=1 to run the two-process fleet smoke test")
	}

	const (
		eps  = 2.4 // height 3 with g=3: 91 unique channels, each a 9x9 LP
		g    = "3"
		side = "20"
		seed = "7"
	)

	// The isolated reference: one process, no fabric, same mechanism
	// configuration. Its precompute solve count is the unique-channel count
	// the fleet total must match.
	ref, err := geoind.NewMSM(geoind.MSMConfig{
		Eps: eps, Region: geoind.Square(20), Granularity: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Precompute(); err != nil {
		t.Fatal(err)
	}
	_, uniqueChannels, _ := ref.CacheStats()
	if uniqueChannels < 10 {
		t.Fatalf("reference precompute solved only %d channels; the fleet assertion would be vacuous", uniqueChannels)
	}
	t.Logf("isolated reference: %d unique channels", uniqueChannels)

	bin := filepath.Join(t.TempDir(), "geoind-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build geoind-server: %v\n%s", err, out)
	}

	ports := []int{freePort(t), freePort(t)}
	urls := []string{
		fmt.Sprintf("http://127.0.0.1:%d", ports[0]),
		fmt.Sprintf("http://127.0.0.1:%d", ports[1]),
	}
	peers := urls[0] + "," + urls[1]

	procs := make([]*exec.Cmd, 2)
	for i := range procs {
		cmd := exec.Command(bin,
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-mechanism", "msm", "-eps", fmt.Sprint(eps), "-g", g, "-side", side,
			"-seed", seed, "-workers", "2", "-budget", "0",
			"-cache-dir", filepath.Join(t.TempDir(), fmt.Sprintf("cache%d", i)),
			"-peers", peers, "-fabric-self", urls[i],
			"-hedge-delay", "20ms", "-fetch-timeout", "3s", "-fetch-backoff", "50ms",
		)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		dieWithParent(cmd)
		if err := cmd.Start(); err != nil {
			t.Fatalf("start replica %d: %v", i, err)
		}
		procs[i] = cmd
		i := i
		t.Cleanup(func() {
			if procs[i].Process != nil {
				_ = procs[i].Process.Kill()
				_, _ = procs[i].Process.Wait()
			}
		})
	}
	for i, u := range urls {
		waitReady(t, u, 60*time.Second)
		t.Logf("replica %d ready on %s", i, u)
	}

	// Phase 1: concurrent cold traffic round-robin across the fleet. A
	// modest point set (not the full domain) leaves some of each replica's
	// non-owned keys cold for the kill phase.
	errs5xx := driveTraffic(t, urls, 8, 120)
	if errs5xx != 0 {
		t.Fatalf("phase 1: %d 5xx responses from the healthy fleet", errs5xx)
	}

	var fleetMisses, fleetRemoteHits int64
	for i, u := range urls {
		st := scrapeStats(t, u)
		if st.ChannelCache == nil {
			t.Fatalf("replica %d: no channel_cache section", i)
		}
		if st.Fabric == nil {
			t.Fatalf("replica %d: no fabric section", i)
		}
		t.Logf("replica %d: %d solves, %d hits", i, st.ChannelCache.Misses, st.ChannelCache.Hits)
		fleetMisses += st.ChannelCache.Misses
		for _, tier := range st.Fabric.Tiers {
			if tier.Name == "remote" {
				fleetRemoteHits += tier.Hits
			}
		}
		if st.ChannelCache.Misses == 0 {
			t.Errorf("replica %d solved nothing; ownership is degenerate", i)
		}
	}
	if fleetMisses != uniqueChannels {
		t.Errorf("fleet solved %d channels total, want exactly %d (each unique channel once)",
			fleetMisses, uniqueChannels)
	}

	// Phase 2: kill replica 1 outright (no drain) and sweep the full domain
	// at replica 0. Cold channels owned by the dead replica must degrade to
	// local solves — zero request errors, only latency.
	_ = procs[1].Process.Kill()
	_, _ = procs[1].Process.Wait()
	if n := driveTraffic(t, urls[:1], 8, 400); n != 0 {
		t.Fatalf("phase 2: %d 5xx responses after killing the peer", n)
	}
	st := scrapeStats(t, urls[0])
	if st.ChannelCache.Misses == 0 {
		t.Error("survivor reports no solves at all")
	}
	t.Logf("survivor after owner loss: %d solves, remote fallbacks=%v",
		st.ChannelCache.Misses, remoteFallbacks(st))
	if fleetRemoteHits == 0 && remoteFallbacks(st) == 0 {
		t.Error("no remote fetch activity anywhere: the fleet never talked to itself")
	}

	// Graceful shutdown of the survivor must exit cleanly.
	if err := procs[0].Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := procs[0].Wait(); err != nil {
		t.Errorf("survivor exit: %v", err)
	}
}

func remoteFallbacks(st *server.StatsResponse) int64 {
	if st.Fabric == nil || st.Fabric.Remote == nil {
		return 0
	}
	return st.Fabric.Remote.Fallbacks
}

func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

func waitReady(t *testing.T, base string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("replica %s not ready within %s", base, timeout)
}

// driveTraffic issues mixed single/batch reports from `workers` goroutines,
// spreading points over the region and requests round-robin over targets.
// Returns the number of 5xx responses; transport errors fail the test (the
// targets passed in are expected to be alive).
func driveTraffic(t *testing.T, targets []string, workers, perWorker int) int64 {
	t.Helper()
	var rr, errs5xx atomic.Int64
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 30 * time.Second}
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Deterministic sweep: worker/iteration pairs cover a grid
				// of points across the 20km region.
				n := w*perWorker + i
				x := float64(n%40) * 0.5
				y := float64((n/40)%40) * 0.5
				target := targets[rr.Add(1)%int64(len(targets))]
				var resp *http.Response
				var err error
				if n%5 == 4 {
					body, _ := json.Marshal([]map[string]any{
						{"user_id": "u", "x": x, "y": y},
						{"user_id": "u", "x": y, "y": x},
					})
					resp, err = client.Post(target+"/v1/report:batch", "application/json", bytes.NewReader(body))
				} else {
					body := fmt.Sprintf(`{"user_id":"u","x":%g,"y":%g}`, x, y)
					resp, err = client.Post(target+"/v1/report", "application/json", bytes.NewReader([]byte(body)))
				}
				if err != nil {
					t.Errorf("request to %s: %v", target, err)
					continue
				}
				if resp.StatusCode >= 500 {
					errs5xx.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	return errs5xx.Load()
}

func scrapeStats(t *testing.T, base string) *server.StatsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("scrape %s/v1/stats: %v", base, err)
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}
