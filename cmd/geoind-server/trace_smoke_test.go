package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"geoind/internal/server"
)

// TestTraceSmoke is the crash-durability gate for the session layer
// (`make trace-smoke`): it builds the real geoind-server binary, drives
// concurrent /v1/trace traffic against a journaled ledger, SIGKILLs the
// process with requests in flight, restarts it on the same -ledger-dir and
// asserts the two load-bearing properties end to end:
//
//  1. no user ever exceeds the window budget — after the crash the replayed
//     ledger reports non-negative remaining budget for every user, and no
//     response at any point was a 5xx (only 200s and budget 429s);
//  2. a stationary user's memoized release survives the restart: the first
//     re-released prediction after recovery returns exactly the coordinates
//     frozen before the kill, at the cheap eps-test price.
//
// Guarded by GEOIND_TRACE_SMOKE=1 because it builds a binary and kills OS
// processes.
func TestTraceSmoke(t *testing.T) {
	if os.Getenv("GEOIND_TRACE_SMOKE") != "1" {
		t.Skip("set GEOIND_TRACE_SMOKE=1 to run the kill -9 trace smoke test")
	}

	const (
		eps     = 2.0
		epsTest = 0.5
		theta   = 4.0
		limit   = 40.0 // low enough that walker users exhaust it mid-run
	)

	bin := filepath.Join(t.TempDir(), "geoind-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build geoind-server: %v\n%s", err, out)
	}

	ledgerDir := t.TempDir()
	start := func() (*exec.Cmd, string) {
		port := freePort(t)
		cmd := exec.Command(bin,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-mechanism", "pl", "-eps", fmt.Sprint(eps), "-side", "20",
			"-seed", "7", "-budget", fmt.Sprint(limit), "-budget-window", "24h",
			"-ledger-dir", ledgerDir, "-ledger-sync", "1",
			"-trace-theta", fmt.Sprint(theta), "-trace-eps-test", fmt.Sprint(epsTest),
		)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		dieWithParent(cmd)
		if err := cmd.Start(); err != nil {
			t.Fatalf("start geoind-server: %v", err)
		}
		// Registered before anything can fail, per process: a kill of an
		// already-reaped process is harmless.
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		url := fmt.Sprintf("http://127.0.0.1:%d", port)
		waitReady(t, url, 60*time.Second)
		return cmd, url
	}

	proc, url := start()

	// Phase 1a: a stationary user reports the same point until a re-release
	// is observed; its memoized release must survive the crash below. This
	// traffic finishes before the kill so the memo on disk is unambiguous.
	const statX, statY = 7.0, 11.0
	var lastRelease [2]float64
	sawMemoHit := false
	for i := 0; i < 15; i++ {
		resp := postTraceSmoke(t, url, "stationary", statX, statY)
		if resp == nil {
			t.Fatal("stationary user request failed before the kill")
		}
		lastRelease = [2]float64{resp.X, resp.Y}
		if !resp.Fresh {
			sawMemoHit = true
			if resp.EpsSpent != epsTest {
				t.Fatalf("memo hit cost %g, want eps-test price %g", resp.EpsSpent, epsTest)
			}
			break
		}
	}
	if !sawMemoHit {
		t.Fatal("stationary user never got a re-released prediction in 15 steps")
	}

	// Phase 1b: concurrent walker traffic, then SIGKILL with requests in
	// flight. Transport errors after the kill flag flips are expected; 5xx
	// responses never are. The low limit means some walkers exhaust their
	// budget first, so 429s (and the no-over-spend check after recovery)
	// are exercised too.
	var killed atomic.Bool
	var errs5xx, sent atomic.Int64
	users := []string{"w0", "w1", "w2", "w3"}
	var wg sync.WaitGroup
	for wi, user := range users {
		wg.Add(1)
		go func(wi int, user string) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(wi), 0x5afe))
			x, y := 4.0+3*float64(wi), 5.0
			client := &http.Client{Timeout: 10 * time.Second}
			for !killed.Load() {
				x = math.Min(math.Max(x+rng.NormFloat64()*0.2, 0), 19.9)
				y = math.Min(math.Max(y+rng.NormFloat64()*0.2, 0), 19.9)
				body := fmt.Sprintf(`{"user_id":%q,"x":%g,"y":%g}`, user, x, y)
				resp, err := client.Post(url+"/v1/trace", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					if !killed.Load() {
						t.Errorf("trace request for %s failed before the kill: %v", user, err)
					}
					continue
				}
				if resp.StatusCode >= 500 {
					errs5xx.Add(1)
				}
				resp.Body.Close()
				sent.Add(1)
			}
		}(wi, user)
	}
	for sent.Load() < 80 { // ensure real journal pressure before the kill
		time.Sleep(10 * time.Millisecond)
	}
	killed.Store(true)
	if err := proc.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
		t.Fatal(err)
	}
	_, _ = proc.Process.Wait()
	wg.Wait()
	if n := errs5xx.Load(); n != 0 {
		t.Fatalf("phase 1: %d 5xx responses before the kill", n)
	}
	t.Logf("killed server after %d trace responses", sent.Load())

	// Phase 2: restart on the same journal. Every user's replayed ledger
	// must be within the window limit — a crash can lose the response to an
	// in-flight request, but never un-journal a spend.
	proc, url = start()
	for _, user := range append(users, "stationary") {
		remaining := budgetRemaining(t, url, user)
		if remaining < -1e-9 {
			t.Errorf("user %s over-spent after crash recovery: remaining %g", user, remaining)
		}
		if remaining > limit+1e-9 {
			t.Errorf("user %s resurrected budget after crash recovery: remaining %g > limit %g", user, remaining, limit)
		}
		t.Logf("user %s: remaining %.2f of %.2f after recovery", user, remaining, limit)
	}

	// Phase 3: the stationary user's trace resumes warm. Until the first
	// fresh report replaces the memo, every re-released prediction must be
	// bit-identical to the release frozen before the kill.
	reused := 0
	memoIntact := true
	for i := 0; i < 10; i++ {
		resp := postTraceSmoke(t, url, "stationary", statX, statY)
		if resp == nil {
			t.Fatal("stationary user request failed after restart")
		}
		if resp.Fresh {
			memoIntact = false // memo legitimately replaced from here on
			continue
		}
		reused++
		if memoIntact && (resp.X != lastRelease[0] || resp.Y != lastRelease[1]) {
			t.Errorf("post-restart re-release (%g, %g) != pre-kill memo (%g, %g)",
				resp.X, resp.Y, lastRelease[0], lastRelease[1])
		}
		if resp.EpsSpent != epsTest {
			t.Errorf("post-restart memo hit cost %g, want %g", resp.EpsSpent, epsTest)
		}
	}
	if reused == 0 {
		t.Error("no re-released predictions in 10 post-restart steps: memo did not survive the crash")
	}
	t.Logf("post-restart: %d/10 steps re-used the journaled release", reused)

	// A clean shutdown must still work after all of the above.
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := proc.Wait(); err != nil {
		t.Errorf("clean shutdown exit: %v", err)
	}
}

// postTraceSmoke posts one predictive trace step and decodes the response;
// nil means a non-200 status (the caller decides whether that is fatal).
func postTraceSmoke(t *testing.T, base, user string, x, y float64) *server.TraceResponse {
	t.Helper()
	body := fmt.Sprintf(`{"user_id":%q,"x":%g,"y":%g}`, user, x, y)
	resp, err := http.Post(base+"/v1/trace", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /v1/trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var tr server.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return &tr
}

func budgetRemaining(t *testing.T, base, user string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/budget?user_id=" + user)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Remaining float64 `json:"remaining_budget"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Remaining
}
