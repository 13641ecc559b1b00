package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"pwf/internal/api"
	"pwf/internal/obs"
	"pwf/internal/rng"
	"pwf/internal/server"
	"pwf/internal/sweep"
)

// serveKinds are the eleven workload kinds, three of which (list,
// hashset, wfuniversal) have no batched form.
var serveKinds = []sweep.Workload{
	{Kind: sweep.SCU, Q: 0, S: 1},
	{Kind: sweep.Parallel, Q: 2},
	{Kind: sweep.FetchInc},
	{Kind: sweep.Unbounded},
	{Kind: sweep.Stack},
	{Kind: sweep.Queue},
	{Kind: sweep.RCU},
	{Kind: sweep.List},
	{Kind: sweep.HashSet},
	{Kind: sweep.LFUniversal},
	{Kind: sweep.WFUniversal},
}

// serveNs are the process counts lone points cycle through. Every kind
// completes operations within the served step count at these n, under
// every scheduler family; wfuniversal does not at n = 24.
var serveNs = []int{2, 3, 4, 6, 8, 10, 12, 16}

// exactShapes are the points that ask for the exact chain; chain
// builds stay in milliseconds at n <= 16.
var exactShapes = []struct {
	w sweep.Workload
	n []int
}{
	{sweep.Workload{Kind: sweep.SCU, Q: 0, S: 1}, []int{4, 8, 16}},
	{sweep.Workload{Kind: sweep.FetchInc}, []int{4, 8, 16}},
	{sweep.Workload{Kind: sweep.Parallel, Q: 2}, []int{4, 8, 16}},
}

// serveGrid generates served grid g. Its shapes — which kind runs at
// which n under which scheduler family in which position, the exact
// points, the replica group — depend only on g, so every seed asks the
// server for the same amount of work in the same order; the seed picks
// the schedulers' parameters and the master seed.
func serveGrid(seed uint64, g int, size sizes) api.Grid {
	src := rng.New(seedFor(seed, 100+g))
	var jobs []sweep.Job
	for i := 0; i < size.servePoints; i++ {
		w := serveKinds[i%len(serveKinds)]
		n := serveNs[(i*5+g*3)%len(serveNs)]
		jobs = append(jobs, sweep.Job{Workload: w, N: n, Sched: randomSched(src, n, i+g)})
	}
	// Exact points sit at fixed positions among the lone points.
	for k, e := range exactShapes {
		n := e.n[g%len(e.n)]
		at := (k + 1) * len(jobs) / (len(exactShapes) + 1)
		exact := sweep.Job{Workload: e.w, N: n, Sched: randomSched(src, n, k+g), Exact: true}
		jobs = append(jobs[:at], append([]sweep.Job{exact}, jobs[at:]...)...)
	}
	// One 16-replica group of a batchable kind (same shape, so the
	// server's sweep coalesces it into one replica batch).
	var batchable []sweep.Workload
	for _, w := range serveKinds {
		if batchKind(w.Kind) {
			batchable = append(batchable, w)
		}
	}
	group := batchable[g%len(batchable)]
	scheds := []string{"uniform", "sticky:0.5", "lottery"}
	spec, err := sweep.ParseScheduler(scheds[g%len(scheds)])
	if err != nil {
		panic(err) // fixed, valid names
	}
	for r := 0; r < 16; r++ {
		jobs = append(jobs, sweep.Job{Workload: group, N: 16, Sched: spec})
	}

	grid := api.Grid{V: api.Version, Seed: seedFor(seed, 200+g)}
	for i, j := range jobs {
		j.Steps = size.serveSteps
		j.WarmupFraction = 0.1
		j.Label = fmt.Sprintf("g%d/p%d/%s/n%d", g, i, j.Workload.Kind, j.N)
		grid.Jobs = append(grid.Jobs, api.JobFromSweep(j))
	}
	return grid
}

// randomSched draws a scheduler in the shared grammar, of one of the
// six families that have a batched drawer, with random parameters. The
// caller picks the family, because families differ in cost per step:
// lottery points take more than twice as long as round-robin ones.
func randomSched(src *rng.Source, n, family int) sweep.SchedulerSpec {
	var s string
	switch family % 6 {
	case 0:
		s = "uniform"
	case 1:
		s = fmt.Sprintf("sticky:%.2f", 0.1+0.8*src.Float64())
	case 2:
		s = "lottery:" + joinInts(n, func() int { return 1 + src.Intn(4) })
	case 3:
		s = "weighted:" + joinInts(n, func() int { return 1 + src.Intn(8) })
	case 4:
		a := joinInts(n, func() int { return 1 + src.Intn(4) })
		b := joinInts(n, func() int { return 1 + src.Intn(4) })
		s = fmt.Sprintf("phased:%s@%d/%s@%d", a, 50+src.Intn(450), b, 50+src.Intn(450))
	default:
		s = "roundrobin"
	}
	spec, err := sweep.ParseScheduler(s)
	if err != nil {
		panic(fmt.Sprintf("generated scheduler %q: %v", s, err))
	}
	return spec
}

func joinInts(n int, next func() int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = strconv.Itoa(next())
	}
	return strings.Join(parts, ",")
}

// warmGrid holds every exact shape of the served grids plus one short
// point per kind: submitting it fills the server's chain cache.
func warmGrid(size sizes) api.Grid {
	grid := api.Grid{V: api.Version, Seed: 1}
	add := func(j sweep.Job) {
		j.Steps, j.WarmupFraction = size.warmupSteps, 0.1
		grid.Jobs = append(grid.Jobs, api.JobFromSweep(j))
	}
	for _, e := range exactShapes {
		for _, n := range e.n {
			add(sweep.Job{Workload: e.w, N: n, Exact: true})
		}
	}
	for _, w := range serveKinds {
		add(sweep.Job{Workload: w, N: 8})
	}
	return grid
}

// latencySlices is how many consecutive slices of its sweeps a
// serve-mixed run takes its latency quantiles and throughput over (see
// slicedQuantile and sliceRates); a 20-second run gives each slice a
// second and about fifty sweeps.
const latencySlices = 20

// loopback is a started server on a loopback listener, mounted as
// cmd/pwfserve mounts it.
type loopback struct {
	srv     *server.Server
	httpSrv *http.Server
	url     string
	done    chan struct{}
}

func startServer() (*loopback, error) {
	srv := server.New(server.Config{
		Workers:  workers,
		Registry: obs.NewRegistry(),
		Cache:    sweep.NewChainCache(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	lb := &loopback{
		srv:     srv,
		httpSrv: &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		url:     "http://" + ln.Addr().String(),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(lb.done)
		_ = lb.httpSrv.Serve(ln)
	}()
	return lb, nil
}

// close stops the listener and the executor and waits for both.
func (lb *loopback) close() {
	_ = lb.httpSrv.Close()
	<-lb.done
	lb.srv.Close()
}

// client is one closed-loop caller with its own connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base: base,
	}
}

// sweepStats is one served sweep as the client saw it.
type sweepStats struct {
	grid          int
	points, bad   int
	refused       bool
	accept, first time.Duration // since POST: 202 received, first line
	total         time.Duration // since POST: last result byte
	stream        time.Duration // GET to last byte
	lines         int
	spanned       bool
	done          time.Time // when the client finished with it
}

// do submits one grid and streams its results to the last byte,
// comparing every line with the reference.
func (c *client) do(tr *tracer, body []byte, ref [][]byte, g, sweepID int) (sweepStats, error) {
	st := sweepStats{grid: g, points: len(ref), spanned: tr != nil}
	root := tr.reserve()
	s0 := tr.begin()
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	var ack struct {
		ResultsURL string `json:"results_url"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&ack)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	st.accept = time.Since(t0)
	tr.end("post", s0, root, sweepID)
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		// Refused (413, 429, 5xx) or unreadable: every point fails.
		st.refused, st.bad = true, st.points
		tr.fill(root, "served_sweep", s0, 0, sweepID)
		return st, nil
	}

	streamSpan := tr.reserve()
	g0 := tr.begin()
	tg := time.Now()
	resp, err = c.http.Get(c.base + ack.ResultsURL)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		st.bad = st.points
		return st, nil
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		l0 := tr.begin()
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if st.lines == 0 {
				st.first = time.Since(t0)
			}
			tr.end("line", l0, streamSpan, sweepID)
			if st.lines >= len(ref) || !bytes.Equal(line, ref[st.lines]) {
				st.bad++
			}
			st.lines++
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return st, err
		}
	}
	st.total = time.Since(t0)
	st.stream = time.Since(tg)
	tr.fill(streamSpan, "stream", g0, root, sweepID)
	tr.fill(root, "served_sweep", s0, 0, sweepID)
	if st.lines < len(ref) {
		st.bad += len(ref) - st.lines
	}
	return st, nil
}

func runServeMixed(cfg *runConfig) (*report, error) {
	rep := &report{}
	size := cfg.size

	// Set-up, several times: generate the grids, start a server with
	// a fresh chain cache, run one warm-up sweep through it.
	var (
		lb     *loopback
		bodies [][]byte
		grids  []api.Grid
	)
	warm, err := api.MarshalGrid(warmGrid(size))
	if err != nil {
		return nil, err
	}
	for i := 0; i < size.setups; i++ {
		if lb != nil {
			lb.close()
		}
		runtime.GC()
		t0 := time.Now()
		grids, bodies = nil, nil
		for g := 0; g < size.serveGrids; g++ {
			grid := serveGrid(cfg.seed, g, size)
			b, err := api.MarshalGrid(grid)
			if err != nil {
				return nil, err
			}
			grids, bodies = append(grids, grid), append(bodies, b)
		}
		if lb, err = startServer(); err != nil {
			return nil, err
		}
		wref := make([][]byte, len(warmGrid(size).Jobs))
		st, err := newClient(lb.url).do(nil, warm, wref, -1, 0)
		if err != nil || st.refused || st.lines != len(wref) {
			lb.close()
			return nil, fmt.Errorf("warm-up sweep: %v (refused %v, %d of %d lines)", err, st.refused, st.lines, len(wref))
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}
	defer lb.close()

	// References: each grid on the width-1 path, locally.
	refs := make([][][]byte, len(grids))
	var all []byte
	for g, grid := range grids {
		results, err := sweep.Run(sweep.Config{
			Jobs: grid.SweepJobs(), Seed: grid.Seed, Workers: refWorkers, BatchFamilies: true,
			ReplicaBatch: 1, Cache: sweep.NewChainCache(), Registry: obs.NewRegistry(),
		})
		if err != nil {
			return nil, fmt.Errorf("width-1 reference of grid %d: %w", g, err)
		}
		b, err := encodeResults(results)
		if err != nil {
			return nil, err
		}
		all = append(all, b...)
		refs[g] = lines(b)
	}

	// closedLoop runs every client at once, each posting its next grid
	// as soon as the stream of its last one ends, while more says so.
	// It returns the sweeps in the order they completed.
	closedLoop := func(more func(k int) bool, tr *tracer) ([]sweepStats, error) {
		var (
			mu    sync.Mutex
			stats []sweepStats
			errs  = make([]error, clients)
			wg    sync.WaitGroup
		)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := newClient(lb.url)
				defer cl.http.CloseIdleConnections()
				for k := 0; more(k); k++ {
					g := (c + k*clients) % len(grids)
					// A traced run spans every other sweep, so the
					// spans' own cost shows against the sweeps without.
					var spans *tracer
					if k%2 == 1 {
						spans = tr
					}
					st, err := cl.do(spans, bodies[g], refs[g], g, c*1_000_000+k+1)
					if err != nil {
						errs[c] = err
						return
					}
					mu.Lock()
					st.done = time.Now()
					stats = append(stats, st)
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		return stats, errors.Join(errs...)
	}

	// Warm-up, untimed but checked: the clients post every grid once,
	// so the first timed sweeps find connections open and the
	// collector paced.
	warmed, err := closedLoop(func(k int) bool { return k < len(grids)/clients }, nil)
	if err != nil {
		return nil, err
	}

	before, err := scrape(lb.url)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	a0 := allocBytes()
	began := time.Now()
	stats, err := closedLoop(func(k int) bool { return k == 0 || time.Since(began) < cfg.seconds }, cfg.tr)
	window := time.Since(began)
	rep.peakRSSMB = peakRSSMB()
	allocated := allocBytes() - a0
	if err != nil {
		return nil, err
	}
	after, err := scrape(lb.url)
	if err != nil {
		return nil, err
	}

	for _, st := range append(warmed, stats...) {
		rep.attempted += st.points
		if st.bad > 0 {
			rep.fail(st.bad, "grid %d: %d of %d result lines refused, missing or different from the width-1 reference", st.grid, st.bad, st.points)
		}
	}
	received := 0
	for _, st := range stats {
		if !st.refused {
			rep.sweepLat = append(rep.sweepLat, ms(st.total))
			rep.firstLine = append(rep.firstLine, ms(st.first))
		}
		received += st.lines
	}
	rep.latencySlices = latencySlices
	rep.rates = sliceRates(stats, began, latencySlices)
	rep.allocKB = []float64{float64(allocated) / 1024 / float64(received)}
	checkRecorded(rep, cfg, recordedDigest{SHA256: digest(all)})

	if cfg.trace {
		serveLayers(rep, stats, window, before, after)
		var l ledger
		if err := l.run(serveProbes(size), size.ledgerRepeats*2); err != nil {
			return nil, err
		}
		l.layers(rep, false)
		l.writeConflictTable(cfg.log)
		if err := encodeLayers(cfg, rep, refs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// sliceRates splits the sweeps of a window (in completion order) into
// k consecutive slices and returns each slice's result lines per second
// of its own stretch of the window; points_per_s is their median, so it
// rides out a stall as the sliced latency quantiles do.
func sliceRates(stats []sweepStats, began time.Time, k int) []float64 {
	var rates []float64
	prev := began
	for i := 0; i < k; i++ {
		part := stats[i*len(stats)/k : (i+1)*len(stats)/k]
		if len(part) == 0 {
			continue
		}
		lines := 0
		for _, st := range part {
			lines += st.lines
		}
		end := part[len(part)-1].done
		rates = append(rates, float64(lines)/end.Sub(prev).Seconds())
		prev = end
	}
	return rates
}

// scrape reads the server's /metrics registry snapshot over HTTP.
func scrape(base string) (obs.Snapshot, error) {
	var s obs.Snapshot
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("decode /metrics: %w", err)
	}
	return s, nil
}

// serveLayers fills the server, sweep, chains and span-overhead
// metrics of a traced serve-mixed run.
func serveLayers(rep *report, stats []sweepStats, window time.Duration, before, after obs.Snapshot) {
	var submit, acceptToFirst, spanned, plain []float64
	var lines int
	var streamed time.Duration
	for _, st := range stats {
		if st.refused {
			continue
		}
		submit = append(submit, ms(st.accept))
		acceptToFirst = append(acceptToFirst, ms(st.first-st.accept))
		lines += st.lines
		streamed += st.stream
		if st.spanned {
			spanned = append(spanned, ms(st.total))
		} else {
			plain = append(plain, ms(st.total))
		}
	}
	rep.layer("server.submit_ms_p50", "ms", median(submit))
	rep.layer("server.accept_to_first_line_ms_p50", "ms", median(acceptToFirst))
	rep.layer("server.lines_per_s", "1/s", float64(lines)/streamed.Seconds())
	rejected := uint64(0)
	for _, name := range []string{"server_sweeps_rejected_overload", "server_sweeps_rejected_invalid", "server_sweeps_rejected_too_large"} {
		rejected += delta(before, after, name)
	}
	rep.layer("server.rejected", "count", float64(rejected))
	rep.layer("server.jobs_coalesced", "count", float64(delta(before, after, "server_jobs_coalesced")))

	points := float64(delta(before, after, "server_jobs_completed"))
	rep.layer("sweep.batched_ratio", "ratio", float64(delta(before, after, "sweep_batch_jobs"))/points)
	rep.layer("sweep.fallback_points", "count", float64(delta(before, after, "sweep_batch_fallbacks"))/float64(len(stats)))
	hb, ha := before.Histograms["server_job_latency_ns"], after.Histograms["server_job_latency_ns"]
	rep.layer("sweep.worker_busy_ratio", "ratio", float64(ha.Sum-hb.Sum)/(window.Seconds()*1e9*workers))
	if q, err := histDelta(hb, ha).Quantile(0.5); err == nil {
		rep.layer("sweep.point_ms_p50", "ms", q/1e6)
	}

	hits := after.Gauges["chain_cache_hits"] - before.Gauges["chain_cache_hits"]
	misses := after.Gauges["chain_cache_misses"] - before.Gauges["chain_cache_misses"]
	rep.layer("chains.cache_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	rep.layer("chains.build_ms", "ms", chainBuildMS())

	rep.layer("bench.span_overhead_pct", "%", 100*(median(spanned)-median(plain))/median(plain))
	rep.notDriven("serve-mixed drives no checkpoint and no trace recorder", "checkpoint.", "obs.")
}

// histDelta subtracts two snapshots of one histogram bucket by bucket.
func histDelta(before, after obs.HistogramSnapshot) obs.HistogramSnapshot {
	prev := make(map[uint64]uint64, len(before.Buckets))
	for _, b := range before.Buckets {
		prev[b.Lo] = b.Count
	}
	var d obs.HistogramSnapshot
	for _, b := range after.Buckets {
		if c := b.Count - prev[b.Lo]; c > 0 {
			d.Buckets = append(d.Buckets, obs.Bucket{Lo: b.Lo, Hi: b.Hi, Count: c})
			d.Count += c
		}
	}
	return d
}

// chainBuildMS times every exact shape's chain on a fresh cache: the
// cost the warm-up sweep moves into set-up.
func chainBuildMS() float64 {
	cache := sweep.NewChainCache()
	var total time.Duration
	builds := 0
	for _, e := range exactShapes {
		for _, n := range e.n {
			t0 := time.Now()
			var err error
			switch e.w.Kind {
			case sweep.SCU:
				_, err = cache.SCUSystem(n)
			case sweep.FetchInc:
				_, err = cache.FetchIncGlobal(n)
			case sweep.Parallel:
				_, err = cache.ParallelSystem(n, e.w.Q)
			}
			if err == nil {
				total += time.Since(t0)
				builds++
			}
		}
	}
	return ms(total) / float64(builds)
}

// encodeLayers times the benchmark's own api.WriteResultLine calls on
// the served results.
func encodeLayers(cfg *runConfig, rep *report, refs [][][]byte) error {
	var results []sweep.Result
	var size int
	for _, ref := range refs {
		for _, line := range ref {
			var r api.Result
			if err := json.Unmarshal(line, &r); err != nil {
				return err
			}
			results = append(results, r.Sweep())
			size += len(line)
		}
	}
	if _, err := encodeLines(cfg.tr, io.Discard, results, 0, 0, nil); err != nil {
		return err
	}
	rep.layer("api.encode_ns", "ns", mean(cfg.tr.durations("encode")))
	rep.layer("api.bytes_per_result", "B", float64(size)/float64(len(results)))
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// serveProbes are the ledger's shapes for serve-mixed: every kind
// under three scheduler families at n = 8, at the served step count.
func serveProbes(size sizes) []probe {
	var probes []probe
	for _, name := range []string{"uniform", "weighted:1,2,3,4,1,2,3,4", "phased:1,1,1,1,4,4,4,4@100/4,4,4,4,1,1,1,1@100"} {
		spec, err := sweep.ParseScheduler(name)
		if err != nil {
			panic(err) // fixed, valid names
		}
		for _, w := range serveKinds {
			probes = append(probes, probe{w: w, n: 8, spec: spec, warmup: warmupOf(size.serveSteps), steps: size.serveSteps})
		}
	}
	return probes
}
