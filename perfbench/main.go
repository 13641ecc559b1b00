// Command perfbench is the end-to-end benchmark of pwf. It drives the
// program in-process through the same calls its users' commands
// make — pwf.RunSweep with a checkpoint.Log and api.WriteResultLine as
// cmd/pwfsweep does, and internal/server.Server on a loopback listener
// as cmd/pwfserve mounts it — and times those calls from outside.
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// holding every end-to-end metric; with --trace 1 it holds every
// per-layer metric instead, measured by spans kept in memory around
// the benchmark's own calls and by probes of each layer. Every run
// checks its outputs byte for byte against a width-1 (scalar)
// reference of the same grid, and against the digests recorded in
// digests.json for the seeds listed there. README.md explains the
// workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Load comes from one process. The host this benchmark is sized for is
// a two-vCPU virtual machine whose second CPU is often busy with other
// tenants: in back-to-back paper-grid runs, two sweep workers gave
// 457–820 points/s and one worker 380–432 points/s. So sweeps run on
// one worker, leaving the second CPU to the garbage collector, the
// HTTP server and the clients; serve-mixed keeps two client
// connections.
//
// The untimed width-1 references use both CPUs: their results do not
// depend on the worker count.
const (
	workers    = 1
	clients    = 2
	refWorkers = 2
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line the benchmark prints last.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run measured: the raw samples behind the
// end-to-end metrics, and the per-layer metrics of a traced run.
type report struct {
	attempted, failed int
	// problems names every failed check; a run with any is incorrect.
	problems []string

	setups    []float64 // seconds per repeated set-up
	rates     []float64 // points per second, one per pass or per run
	sweepLat  []float64 // ms, POST (or pass start) to last result byte
	firstLine []float64 // ms, POST (or pass start) to first result line
	allocKB   []float64 // KiB allocated per point, per pass (grids) or per window
	// latencySlices, when above 1, splits sweepLat and firstLine (in
	// completion order) into that many consecutive slices: each
	// latency quantile is then the median of the slices' quantiles.
	latencySlices int
	peakRSSMB     float64
	cpu           []float64 // ms of process CPU time per pass
	layers        map[string]metric
	layerNotes    []string
}

func (r *report) fail(points int, format string, args ...any) {
	r.failed += points
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) layer(name, unit string, v float64) {
	if r.layers == nil {
		r.layers = make(map[string]metric)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.layers[name] = metric{Value: v, Unit: unit}
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	size     sizes
	dir      string // scratch directory for this run's files
	tr       *tracer
	log      io.Writer
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runConfig) (*report, error){
	"paper-grid":  runPaperGrid,
	"traced-grid": runTracedGrid,
	"serve-mixed": runServeMixed,
}

func main() {
	out, err := run(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func run(args []string, log io.Writer) (*outcome, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(log)
	var (
		workload = fs.String("workload", "", "workload to run: paper-grid, traced-grid or serve-mixed")
		seed     = fs.Uint64("seed", 1, "workload seed; every input is generated from it")
		seconds  = fs.Float64("seconds", 20, "how long to measure, in timed passes or sweeps")
		trace    = fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
		smoke    = fs.Bool("smoke", false, "run at the tiny self-test size (digests.json does not apply)")
		outDir   = fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run files and span dumps")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	runner, ok := workloads[*workload]
	if !ok {
		return nil, fmt.Errorf("unknown -workload %q (have paper-grid, traced-grid, serve-mixed)", *workload)
	}
	if *seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	cfg := &runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		size:     fullSize,
		log:      log,
	}
	if *smoke {
		cfg.size = smokeSize
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(*outDir, *workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	cfg.dir = runDir
	if cfg.trace {
		cfg.tr = newTracer()
	}
	spin(300 * time.Millisecond)
	runtime.GC()

	rep, err := runner(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.ndjson", *workload, *seed))
		if err := cfg.tr.writeOut(path, log); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	fmt.Fprintf(log, "perfbench: %s seed %d: set-ups %s s; rates %s 1/s; sweep latencies %s ms; first lines %s ms; cpu %s ms; allocated %s KB/point; peak RSS %.1f MB\n",
		cfg.workload, cfg.seed, brief(rep.setups), brief(rep.rates), brief(rep.sweepLat), brief(rep.firstLine), brief(rep.cpu), brief(rep.allocKB), rep.peakRSSMB)
	for _, p := range rep.problems {
		fmt.Fprintln(log, "perfbench: check failed:", p)
	}
	for _, n := range rep.layerNotes {
		fmt.Fprintln(log, "perfbench:", n)
	}
	out := &outcome{
		Correct:   len(rep.problems) == 0 && rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
	}
	if cfg.trace {
		out.Metrics = rep.layers
	} else {
		out.Metrics = endToEnd(rep)
	}
	return out, nil
}

// endToEnd reduces a report's samples to the end-to-end metrics.
func endToEnd(r *report) map[string]metric {
	lat := func(xs []float64, q float64) float64 { return slicedQuantile(xs, q, r.latencySlices) }
	return map[string]metric{
		"setup_s":              {median(r.setups), "s"},
		"points_per_s":         {median(r.rates), "1/s"},
		"sweep_latency_p50_ms": {lat(r.sweepLat, 0.50), "ms"},
		"sweep_latency_p95_ms": {lat(r.sweepLat, 0.95), "ms"},
		"first_line_p50_ms":    {lat(r.firstLine, 0.50), "ms"},
		"first_line_p95_ms":    {lat(r.firstLine, 0.95), "ms"},
		"alloc_kb_per_point":   {median(r.allocKB), "KB"},
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// slicedQuantile splits xs into k consecutive slices of (nearly) equal
// length and returns the median of their q-quantiles; with k <= 1 it is
// quantile(xs, q). A stall that lasts a few seconds of a run lands in a
// few slices and leaves the median of the slices' tails where it was,
// where it would move the tail of the whole run.
func slicedQuantile(xs []float64, q float64, k int) float64 {
	if k <= 1 || len(xs) < k {
		return quantile(xs, q)
	}
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
	}
	return median(qs)
}

// allocBytes returns the bytes the process has allocated on the heap
// so far.
func allocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// peakRSSMB returns the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// spin keeps every CPU busy with the benchmark's own hashing for d
// before anything is timed: on a virtual machine an idle virtual CPU
// can take a moment to run at full speed again, and that ramp would
// otherwise land in the first set-up.
func spin(d time.Duration) {
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			for t0 := time.Now(); time.Since(t0) < d; {
				sum := sha256.Sum256(buf)
				buf[0] = sum[0]
			}
		}()
	}
	wg.Wait()
}

// brief renders up to a dozen samples compactly for diagnostics.
func brief(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i == 12 {
			fmt.Fprintf(&b, " …(%d)", len(xs))
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	return b.String()
}
