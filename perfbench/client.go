package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sync"
	"time"

	"geoind/internal/geo"
	"geoind/internal/server"
)

// budgetLimit is the per-user window budget every server of the benchmark
// runs with: far above what any user can spend in a run, so no request is
// refused and the benchmark times the success path.
const budgetLimit = 1e9

// driver sends pre-generated ops to one server in a closed loop and checks
// every response.
type driver struct {
	client  *http.Client
	base    string
	region  geo.Rect
	eps     float64
	epsTest float64
	tr      *tracer // nil: no span headers are sent
}

func newDriver(base string, conns int, region geo.Rect, eps, epsTest float64) *driver {
	return &driver{
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
		base: base, region: region, eps: eps, epsTest: epsTest,
	}
}

// tally is what one connection measured. Connections never share a tally.
type tally struct {
	attempted, failed int64
	points            int64
	start             time.Time // when the run began
	samples           []sample
	charged           map[string]float64 // ε per user, summed from responses
	epsTotal          float64
	lossSum           float64
	fresh, memo       int64
	firstErr          error

	last map[string]geo.Point // each trace user's previous release
}

func newTally(start time.Time) *tally {
	return &tally{start: start, charged: make(map[string]float64), last: make(map[string]geo.Point)}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.points += o.points
	t.samples = append(t.samples, o.samples...)
	for u, e := range o.charged {
		t.charged[u] += e
	}
	t.epsTotal += o.epsTotal
	t.lossSum += o.lossSum
	t.fresh += o.fresh
	t.memo += o.memo
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// run drives one goroutine per op list, each starting over when it reaches
// the end of its list, until dur has elapsed or, with counts, until
// connection i has sent counts[i] ops. It returns how many ops each
// connection sent.
func (d *driver) run(conns [][]op, dur time.Duration, counts []int) (*tally, []int) {
	tallies := make([]*tally, len(conns))
	sent := make([]int, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	more := func(i int) bool {
		if counts != nil {
			return sent[i] < counts[i]
		}
		return time.Now().Before(deadline)
	}
	for i, ops := range conns {
		tallies[i] = newTally(start)
		wg.Add(1)
		go func(i int, ops []op) {
			defer wg.Done()
			for ; more(i); sent[i]++ {
				d.do(tallies[i], &ops[sent[i]%len(ops)])
			}
		}(i, ops)
	}
	wg.Wait()
	total := newTally(start)
	for _, t := range tallies {
		total.merge(t)
	}
	return total, sent
}

// do sends one op, records its latency and checks the response. A transport
// error, a non-200 and a failed check each count as one failed request.
func (d *driver) do(t *tally, o *op) {
	t.attempted++
	req, err := http.NewRequest(http.MethodPost, d.base+classPaths[o.class], bytes.NewReader(o.body))
	if err != nil {
		t.fail(err)
		return
	}
	var ref spanRef
	var spanStart int64
	if d.tr != nil {
		ref = d.tr.root()
		req.Header.Set(spanHeader, ref.header())
		spanStart = d.tr.now()
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		t.samples = append(t.samples, sample{end: time.Since(t.start), lat: time.Since(t0)})
		t.fail(err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	smp := sample{end: time.Since(t.start), lat: time.Since(t0)}
	defer func() { t.samples = append(t.samples, smp) }()
	if d.tr != nil {
		d.tr.record(span{req: ref.req, id: ref.id, name: spanClient, class: o.class, n: int32(len(o.pts)), start: spanStart, end: d.tr.now()})
	}
	if err != nil {
		t.fail(err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		t.fail(fmt.Errorf("%s: status %d: %s", classPaths[o.class], resp.StatusCode, bytes.TrimSpace(body)))
		return
	}
	if err := d.check(t, o, body); err != nil {
		t.fail(fmt.Errorf("%s user %s: %w", classPaths[o.class], o.user, err))
		return
	}
	smp.points = int32(len(o.pts))
}

// check validates one 200 response: every released point lies in the
// region, the charge is exactly what the request must pay, a batch returns
// one point per input, and a memo re-release repeats the user's previous
// release bit for bit.
func (d *driver) check(t *tally, o *op, body []byte) error {
	var out []geo.Point
	var spent, want float64
	switch o.class {
	case classReport:
		var r server.ReportResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		out, spent, want = []geo.Point{{X: r.X, Y: r.Y}}, r.EpsSpent, d.eps
	case classBatch:
		var r server.BatchReportResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Results) != len(o.pts) {
			return fmt.Errorf("batch of %d returned %d results", len(o.pts), len(r.Results))
		}
		for _, p := range r.Results {
			out = append(out, geo.Point{X: p.X, Y: p.Y})
		}
		spent, want = r.EpsSpent, float64(len(o.pts))*d.eps
	case classTrace:
		var r server.TraceResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		z := geo.Point{X: r.X, Y: r.Y}
		prev, had := t.last[o.user]
		var err error
		if want, err = wantTraceEps(r.Fresh, had, d.eps, d.epsTest); err != nil {
			return err
		}
		if !r.Fresh && (math.Float64bits(z.X) != math.Float64bits(prev.X) || math.Float64bits(z.Y) != math.Float64bits(prev.Y)) {
			return fmt.Errorf("memo re-release %v differs from previous release %v", z, prev)
		}
		if r.Fresh {
			t.last[o.user] = z
			t.fresh++
		} else {
			t.memo++
		}
		out, spent = []geo.Point{z}, r.EpsSpent
	}
	if err := checkCharge(spent, want); err != nil {
		return err
	}
	for i, z := range out {
		if !d.region.ContainsClosed(z) {
			return fmt.Errorf("released %v outside region %v", z, d.region)
		}
		t.lossSum += z.Dist(o.pts[i])
	}
	t.points += int64(len(out))
	t.charged[o.user] += spent
	t.epsTotal += spent
	return nil
}

// getJSON fetches one GET endpoint into v.
func (d *driver) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// remaining asks the server for a user's remaining budget.
func (d *driver) remaining(user string) (float64, error) {
	var r struct {
		Remaining float64 `json:"remaining_budget"`
	}
	err := d.getJSON("/v1/budget?user_id="+url.QueryEscape(user), &r)
	return r.Remaining, err
}
