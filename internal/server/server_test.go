package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"pwf/internal/api"
	"pwf/internal/obs"
	"pwf/internal/sweep"
)

func testGrid() api.Grid {
	return api.Grid{
		V:    api.Version,
		Seed: 7,
		Jobs: []api.Job{
			{Workload: api.Workload{Kind: sweep.SCU, S: 1}, N: 3, Steps: 5000, Exact: true},
			{Workload: api.Workload{Kind: sweep.FetchInc}, N: 2, Steps: 5000, Exact: true},
			{Workload: api.Workload{Kind: sweep.SCU, S: 1}, N: 4, Steps: 5000,
				Sched: api.SchedulerSpec{Kind: sweep.SchedSticky, Rho: 0.5}},
			{Workload: api.Workload{Kind: sweep.FetchInc}, N: 3, Steps: 5000},
		},
	}
}

// localLines renders the grid's canonical result lines by running the
// sweep in-process — the ground truth HTTP streams must match
// byte-for-byte.
func localLines(t *testing.T, g api.Grid) []byte {
	t.Helper()
	results, err := sweep.Run(sweep.Config{Jobs: g.SweepJobs(), Seed: g.Seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range results {
		if err := api.WriteResultLine(&buf, api.ResultFromSweep(r)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Cache == nil {
		cfg.Cache = sweep.NewChainCache()
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, g api.Grid) (id string, jobs int) {
	t.Helper()
	body, err := api.MarshalGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var ack struct {
		V          int    `json:"v"`
		ID         string `json:"id"`
		Jobs       int    `json:"jobs"`
		ResultsURL string `json:"results_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.V != api.Version || ack.ID == "" ||
		ack.ResultsURL != "/v1/sweeps/"+ack.ID+"/results" {
		t.Fatalf("malformed ack: %+v", ack)
	}
	return ack.ID, ack.Jobs
}

func decodeError(t *testing.T, resp *http.Response) api.Error {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error response Content-Type = %q, want application/json", ct)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body did not decode as api.Error: %v", err)
	}
	if e.V != api.Version {
		t.Errorf("error body v = %d, want %d", e.V, api.Version)
	}
	return e
}

// The acceptance criterion: results streamed over HTTP are
// byte-identical to the canonical lines a local run of the same grid
// and master seed produces.
func TestStreamedResultsMatchLocalRun(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2})
	g := testGrid()
	id, jobs := submit(t, ts, g)
	if jobs != len(g.Jobs) {
		t.Fatalf("ack reports %d jobs, want %d", jobs, len(g.Jobs))
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("results Content-Type = %q, want application/x-ndjson", ct)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := localLines(t, g); !bytes.Equal(got, want) {
		t.Errorf("streamed bytes differ from local run:\n got: %s\nwant: %s", got, want)
	}

	// The stream is also valid canonical NDJSON with per-job indices
	// in input order.
	results, err := api.ReadResults(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("line %d has index %d; stream must be in input order", i, r.Index)
		}
	}

	// And the status endpoint reports completion.
	st, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var status struct {
		Status string `json:"status"`
		Done   int    `json:"done"`
		Total  int    `json:"total"`
	}
	if err := json.NewDecoder(st.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Status != "done" || status.Done != len(g.Jobs) || status.Total != len(g.Jobs) {
		t.Errorf("status after stream = %+v, want done %d/%d", status, len(g.Jobs), len(g.Jobs))
	}
}

// Cursor resume: a client that read k lines and reconnected with
// cursor=k sees exactly the remaining lines — no duplicates, no gaps.
func TestResultsCursorResume(t *testing.T) {
	_, ts := startServer(t, Config{})
	g := testGrid()
	id, _ := submit(t, ts, g)
	want := localLines(t, g)
	wantLines := bytes.SplitAfter(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))

	// First connection: read two lines, then drop it mid-stream.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	var head bytes.Buffer
	for i := 0; i < 2; i++ {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		head.Write(line)
	}
	resp.Body.Close()

	// Resume from cursor=2, once via the query parameter and once via
	// the Last-Event-ID header; both must return exactly the tail.
	for _, mk := range []func() *http.Request{
		func() *http.Request {
			r, _ := http.NewRequest("GET", ts.URL+"/v1/sweeps/"+id+"/results?cursor=2", nil)
			return r
		},
		func() *http.Request {
			r, _ := http.NewRequest("GET", ts.URL+"/v1/sweeps/"+id+"/results", nil)
			r.Header.Set("Last-Event-ID", "2")
			return r
		},
	} {
		resp, err := http.DefaultClient.Do(mk())
		if err != nil {
			t.Fatal(err)
		}
		tail, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		full := append(append([]byte{}, head.Bytes()...), tail...)
		if !bytes.Equal(full, want) {
			t.Errorf("head+tail != full stream:\n got: %s\nwant: %s", full, want)
		}
		gotLines := bytes.SplitAfter(bytes.TrimSuffix(tail, []byte("\n")), []byte("\n"))
		if len(gotLines) != len(wantLines)-2 {
			t.Errorf("resume returned %d lines, want %d", len(gotLines), len(wantLines)-2)
		}
	}

	// Cursor at the end yields an empty, immediately-closed stream.
	resp, err = http.Get(fmt.Sprintf("%s/v1/sweeps/%s/results?cursor=%d", ts.URL, id, len(g.Jobs)))
	if err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("cursor=total returned %d bytes, want none", len(rest))
	}

	// Out-of-range and malformed cursors are structured 400s.
	for _, cursor := range []string{"-1", "999", "two"} {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results?cursor=" + cursor)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("cursor=%s: status %d, want 400", cursor, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != api.CodeInvalidGrid {
			t.Errorf("cursor=%s: code %q", cursor, e.Code)
		}
	}
}

// A client that disconnects mid-stream releases its handler: the
// blocked stream observes the canceled request context and the
// disconnect counter advances.
func TestClientDisconnectMidStream(t *testing.T) {
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	_, ts := startServer(t, Config{Registry: reg, gate: gate})
	id, _ := submit(t, ts, testGrid())

	// The sweep is gated, so the stream has nothing to send and parks
	// in its wait loop.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/sweeps/"+id+"/results", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["server_streams_opened"]; got != 1 {
		t.Errorf("streams opened = %d, want 1", got)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters["server_streams_disconnected"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect was never observed by the handler")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate) // let the sweep drain before Cleanup closes the server
}

// Oversized submissions are rejected up front with structured bodies:
// too many jobs (grid_too_large) and too many bytes (body_too_large).
func TestOversizedSubmissionsRejected(t *testing.T) {
	_, ts := startServer(t, Config{MaxGridJobs: 2, MaxBodyBytes: 512})

	g := testGrid() // 4 jobs > MaxGridJobs, but also > 512 bytes, so shrink steps first
	small := api.Grid{V: api.Version, Seed: 1, Jobs: []api.Job{
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 2, Steps: 100},
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 3, Steps: 100},
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 4, Steps: 100},
	}}
	body, err := api.MarshalGrid(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > 512 {
		t.Fatalf("test grid unexpectedly large: %d bytes", len(body))
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("3-job grid with MaxGridJobs=2: status %d, want 413", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != api.CodeGridTooLarge {
		t.Errorf("code %q, want %q", e.Code, api.CodeGridTooLarge)
	}

	g.Jobs[0].Label = strings.Repeat("x", 600)
	big, err := api.MarshalGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) <= 512 {
		t.Fatalf("big grid unexpectedly small: %d bytes", len(big))
	}
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != api.CodeBodyTooLarge {
		t.Errorf("code %q, want %q", e.Code, api.CodeBodyTooLarge)
	}
}

// Bounded admission: once queued jobs reach MaxQueuedJobs, further
// submissions get 429 with a Retry-After header and a structured
// body, and the queue-depth gauge exposes the backlog.
func TestOverloadRejectsWith429(t *testing.T) {
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	_, ts := startServer(t, Config{Registry: reg, MaxQueuedJobs: 4, RetryAfter: 3 * time.Second, gate: gate})

	if _, jobs := submit(t, ts, testGrid()); jobs != 4 {
		t.Fatalf("first submission queued %d jobs, want 4", jobs)
	}
	if depth := reg.Snapshot().Gauges["server_queue_depth"]; depth != 4 {
		t.Errorf("queue depth = %d, want 4", depth)
	}

	body, err := api.MarshalGrid(api.Grid{V: api.Version, Seed: 1, Jobs: []api.Job{
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 2, Steps: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}
	e := decodeError(t, resp)
	if e.Code != api.CodeOverloaded {
		t.Errorf("code %q, want %q", e.Code, api.CodeOverloaded)
	}
	if e.RetryAfterSec != 3 {
		t.Errorf("retry_after_sec = %d, want 3", e.RetryAfterSec)
	}
	if got := reg.Snapshot().Counters["server_sweeps_rejected_overload"]; got != 1 {
		t.Errorf("overload rejections = %d, want 1", got)
	}

	// Releasing the gate drains the queue; capacity comes back and the
	// same submission is now accepted.
	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Gauges["server_queue_depth"] != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained after releasing the gate")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("post-drain submission: status %d, want 202", resp.StatusCode)
	}
}

// Malformed submissions and unknown sweeps produce structured errors
// with stable codes.
func TestStructuredErrors(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"not json", "nope", http.StatusBadRequest, api.CodeInvalidGrid},
		{"unknown field", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu"},"n":2,"steps":10,"warmup_fraction":0,"bogus":1}]}`,
			http.StatusBadRequest, api.CodeInvalidGrid},
		{"empty grid", `{"v":1,"seed":1,"jobs":[]}`, http.StatusBadRequest, api.CodeInvalidGrid},
		// Shapes the sweep engine cannot build are refused at admission,
		// not accepted and failed later as internal errors.
		{"scu without scan length", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu"},"n":2,"steps":10,"warmup_fraction":0}]}`,
			http.StatusBadRequest, api.CodeInvalidGrid},
		{"crash under adversary", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu","s":1},"n":2,"sched":"adversary:0","crash":1,"steps":10,"warmup_fraction":0}]}`,
			http.StatusBadRequest, api.CodeInvalidGrid},
		{"wrong version", `{"v":9,"seed":1,"jobs":[{"workload":{"kind":"scu"},"n":2,"steps":10,"warmup_fraction":0}]}`,
			http.StatusBadRequest, api.CodeUnsupportedVersion},
		// Shapes beyond the size bounds would panic a sweep worker
		// allocating them and take the daemon down.
		{"huge n", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu","s":1},"n":4611686018427387904,"steps":10,"warmup_fraction":0}]}`,
			http.StatusBadRequest, api.CodeInvalidGrid},
		{"huge scan", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu","s":4611686018427387904},"n":2,"steps":10,"warmup_fraction":0}]}`,
			http.StatusBadRequest, api.CodeInvalidGrid},
		{"huge pool", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"stack","pool_size":4611686018427387904},"n":2,"steps":10,"warmup_fraction":0}]}`,
			http.StatusBadRequest, api.CodeInvalidGrid},
		{"pool past the node references", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"queue","pool_size":349525},"n":3,"steps":10,"warmup_fraction":0}]}`,
			http.StatusBadRequest, api.CodeInvalidGrid},
		{"huge tickets", `{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu","s":1},"n":2,"sched":{"kind":"lottery","tickets":[4611686018427387904,4611686018427387904]},"steps":10,"warmup_fraction":0}]}`,
			http.StatusBadRequest, api.CodeInvalidGrid},
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if e := decodeError(t, resp); e.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, tc.code)
		}
	}

	// The server still answers after the refusals: a valid grid runs
	// to its last line.
	id, jobs := submit(t, ts, testGrid())
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	results, err := api.ReadResults(resp.Body)
	resp.Body.Close()
	if err != nil || len(results) != jobs {
		t.Fatalf("valid grid after refusals: %d results of %d, err %v", len(results), jobs, err)
	}

	for _, path := range []string{"/v1/sweeps/nope", "/v1/sweeps/nope/results", "/bogus"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != api.CodeNotFound {
			t.Errorf("GET %s: code %q, want %q", path, e.Code, api.CodeNotFound)
		}
	}
}

// The observability surface: /healthz answers, /metrics exposes queue
// depth, batching counters, per-job latency histogram, and the chain
// cache's hit/miss gauges.
func TestMetricsSurface(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := startServer(t, Config{Registry: reg})
	g := testGrid()
	id, _ := submit(t, ts, g)
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", hz.StatusCode)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics did not decode as a snapshot: %v", err)
	}
	if got := snap.Counters["server_jobs_completed"]; got != uint64(len(g.Jobs)) {
		t.Errorf("jobs completed = %d, want %d", got, len(g.Jobs))
	}
	if snap.Counters["server_sweeps_accepted"] != 1 {
		t.Errorf("sweeps accepted = %d, want 1", snap.Counters["server_sweeps_accepted"])
	}
	// testGrid has 4 jobs in 4 distinct families (different scheds /
	// exactness), so coalescing is 0 here; the counter must exist.
	if _, ok := snap.Counters["server_jobs_coalesced"]; !ok {
		t.Error("server_jobs_coalesced counter missing")
	}
	if _, ok := snap.Gauges["server_queue_depth"]; !ok {
		t.Error("server_queue_depth gauge missing")
	}
	if _, ok := snap.Gauges["chain_cache_hits"]; !ok {
		t.Error("chain_cache_hits gauge missing")
	}
	h, ok := snap.Histograms["server_job_latency_ns"]
	if !ok {
		t.Fatal("server_job_latency_ns histogram missing")
	}
	if h.Count != uint64(len(g.Jobs)) {
		t.Errorf("latency histogram count = %d, want %d", h.Count, len(g.Jobs))
	}
}

// Family batching advertises its coalescing: a grid of same-family
// jobs counts len(jobs)-1 coalesced dispatches. Families are keyed on
// the full job shape — jobs differing in N (or weights, or crash
// plans) are distinct families, only presentation fields coalesce.
func TestCoalescingCounter(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := startServer(t, Config{Registry: reg})
	g := api.Grid{V: api.Version, Seed: 3, Jobs: []api.Job{
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 3, Steps: 200, Label: "a"},
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 3, Steps: 200, Label: "b"},
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 3, Steps: 200, Label: "c"},
		{Workload: api.Workload{Kind: sweep.FetchInc}, N: 4, Steps: 200},
	}}
	id, _ := submit(t, ts, g)
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := localLines(t, g); !bytes.Equal(got, want) {
		t.Errorf("batched sweep bytes differ from local run:\n got: %s\nwant: %s", got, want)
	}
	if c := reg.Snapshot().Counters["server_jobs_coalesced"]; c != 2 {
		t.Errorf("jobs coalesced = %d, want 2 (4 jobs, 2 families)", c)
	}
}

// A replica-heavy grid — one shape repeated across many jobs, the
// sweep the batched simulator core coalesces — still streams bytes
// identical to the scalar local run.
func TestReplicaHeavyGridMatchesLocalRun(t *testing.T) {
	jobs := make([]api.Job, 24)
	for i := range jobs {
		jobs[i] = api.Job{Workload: api.Workload{Kind: sweep.SCU, S: 1}, N: 5, Steps: 2000}
	}
	g := api.Grid{V: api.Version, Seed: 41, Jobs: jobs}
	_, ts := startServer(t, Config{Workers: 2})
	id, _ := submit(t, ts, g)
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := localLines(t, g); !bytes.Equal(got, want) {
		t.Errorf("replica-batched sweep bytes differ from scalar local run:\n got: %s\nwant: %s", got, want)
	}
}

// Finished sweeps are evicted after the retention window: the id
// 404s, the store shrinks, and the eviction is counted in /metrics.
func TestRetentionEvictsFinishedSweeps(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := startServer(t, Config{Retention: 50 * time.Millisecond, Registry: reg})
	g := testGrid()
	id, _ := submit(t, ts, g)

	// Drain the stream so the sweep finishes.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusGone {
			e := decodeError(t, resp)
			if e.Code != api.CodeGone {
				t.Errorf("evicted sweep error code = %q, want %q", e.Code, api.CodeGone)
			}
			break
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still queryable long past the retention window", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.mu.Lock()
	stored := len(s.sweeps)
	s.mu.Unlock()
	if stored != 0 {
		t.Errorf("%d sweeps still stored after eviction", stored)
	}
	if c := reg.Snapshot().Counters["server_sweeps_evicted"]; c != 1 {
		t.Errorf("server_sweeps_evicted = %d, want 1", c)
	}

	// A running (unfinished) sweep must never be evicted: hold the
	// executor at the gate so the sweep stays queued past the window.
	gate := make(chan struct{})
	reg2 := obs.NewRegistry()
	s2, ts2 := startServer(t, Config{Retention: 30 * time.Millisecond, Registry: reg2, gate: gate})
	id2, _ := submit(t, ts2, g)
	time.Sleep(150 * time.Millisecond) // several retention windows
	s2.mu.Lock()
	_, present := s2.sweeps[id2]
	s2.mu.Unlock()
	if !present {
		t.Error("queued sweep was evicted before finishing")
	}
	close(gate)
}

// A client resuming a result stream by cursor after its sweep aged
// out of retention gets 410 Gone with the stable "gone" code — it
// should stop retrying — while a never-issued id stays 404.
func TestEvictedCursorResumeGets410(t *testing.T) {
	s, ts := startServer(t, Config{Retention: 30 * time.Millisecond})
	g := testGrid()
	id, _ := submit(t, ts, g)

	// Stream part of the results, remembering the cursor.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	cursor := 0
	for sc.Scan() {
		cursor++
		if cursor == 2 {
			break
		}
	}
	resp.Body.Close()

	// Let the sweep finish and age out.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		_, present := s.sweeps[id]
		s.mu.Unlock()
		if !present {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resume, err := http.Get(fmt.Sprintf("%s/v1/sweeps/%s/results?cursor=%d", ts.URL, id, cursor))
	if err != nil {
		t.Fatal(err)
	}
	if resume.StatusCode != http.StatusGone {
		t.Errorf("cursor resume after eviction: status %d, want %d", resume.StatusCode, http.StatusGone)
	}
	e := decodeError(t, resume)
	if e.Code != api.CodeGone {
		t.Errorf("code %q, want %q", e.Code, api.CodeGone)
	}

	// An id that never existed is still a 404: "gone" is a statement
	// about history, not a catch-all.
	other, err := http.Get(ts.URL + "/v1/sweeps/s999999")
	if err != nil {
		t.Fatal(err)
	}
	if other.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want %d", other.StatusCode, http.StatusNotFound)
	}
	if e := decodeError(t, other); e.Code != api.CodeNotFound {
		t.Errorf("unknown id code %q, want %q", e.Code, api.CodeNotFound)
	}
}

// With CheckpointDir set, a submitted sweep survives a process
// restart: a new server over the same directory re-serves the same
// id, the same result bytes, and honors cursors issued before the
// restart — without recomputing completed points.
func TestCheckpointDirPersistsSweepsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	g := testGrid()
	want := localLines(t, g)

	reg1 := obs.NewRegistry()
	s1, ts1 := startServer(t, Config{CheckpointDir: dir, Registry: reg1})
	id, _ := submit(t, ts1, g)

	// Drain the full stream (sweep done, checkpoint fully written),
	// but pretend this client only saw the first 2 lines.
	resp, err := http.Get(ts1.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	first, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Fatalf("pre-restart stream differs from local run:\n%s\nwant:\n%s", first, want)
	}
	ts1.Close()
	s1.Close()

	// "Restart": a fresh server over the same directory.
	reg2 := obs.NewRegistry()
	_, ts2 := startServer(t, Config{CheckpointDir: dir, Registry: reg2})

	// The old id resolves, with the same bytes.
	resp2, err := http.Get(ts2.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restored sweep stream: status %d", resp2.StatusCode)
	}
	again, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Errorf("post-restart stream differs from local run")
	}

	// A cursor issued before the restart resumes with no gaps and no
	// duplicates.
	lines := bytes.SplitAfter(want, []byte("\n"))
	resp3, err := http.Get(ts2.URL + "/v1/sweeps/" + id + "/results?cursor=2")
	if err != nil {
		t.Fatal(err)
	}
	tail, err := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if wantTail := bytes.Join(lines[2:], nil); !bytes.Equal(tail, wantTail) {
		t.Errorf("cursor resume after restart:\n%s\nwant:\n%s", tail, wantTail)
	}

	// Restored, replayed from the checkpoint — not recomputed.
	snap := reg2.Snapshot()
	if snap.Counters["server_sweeps_restored"] != 1 {
		t.Errorf("server_sweeps_restored = %d, want 1", snap.Counters["server_sweeps_restored"])
	}
	if c := snap.Counters["server_jobs_completed"]; c != 0 {
		t.Errorf("restart recomputed %d jobs; want 0 (checkpoint replay)", c)
	}
	if c := snap.Counters["checkpoint_points_restored"]; c != uint64(len(g.Jobs)) {
		t.Errorf("checkpoint_points_restored = %d, want %d", c, len(g.Jobs))
	}

	// New submissions on the restarted server do not collide with
	// restored ids.
	id2, _ := submit(t, ts2, g)
	if id2 == id {
		t.Errorf("restarted server reissued id %q", id)
	}
}

// Eviction under CheckpointDir deletes the persisted files, so a
// restart does not resurrect expired sweeps.
func TestEvictionRemovesPersistedState(t *testing.T) {
	dir := t.TempDir()
	s, ts := startServer(t, Config{CheckpointDir: dir, Retention: 30 * time.Millisecond})
	g := testGrid()
	id, _ := submit(t, ts, g)
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(resp.Body)
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		_, present := s.sweeps[id]
		s.mu.Unlock()
		if !present {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, path := range []string{s.gridPath(id), s.ckptPath(id)} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s still exists after eviction (stat err: %v)", path, err)
		}
	}
}
