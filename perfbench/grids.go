package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"pwf"
	"pwf/internal/api"
	"pwf/internal/rng"
	"pwf/internal/sweep"
)

// sizes fixes how much work one unit of each workload is. A unit (a
// pass over a grid, or one served grid) always does the same work for
// a seed, so its output digest is fixed per seed.
type sizes struct {
	name string

	paperNs       []int  // process counts of paper-grid
	tracedNs      []int  // process counts of traced-grid
	replicas      int    // seed replicas per shape
	paperSteps    uint64 // measurement window per paper-grid point
	tracedSteps   uint64 // measurement window per traced-grid point
	warmupSteps   uint64 // per point of the set-up warm-up sweep
	setups        int    // set-ups per run; setup_s is their median
	minPasses     int    // passes per run even when -seconds is short
	serveGrids    int    // distinct grids the serve-mixed clients cycle through
	servePoints   int    // lone points per served grid
	serveSteps    uint64 // measurement window per served point
	ledgerRepeats int    // repetitions of each ledger probe
}

var fullSize = sizes{
	name:          "full",
	paperNs:       []int{2, 4, 8, 16, 32, 64, 1024},
	tracedNs:      []int{2, 4, 8, 16, 32, 64},
	replicas:      16,
	paperSteps:    60_000,
	tracedSteps:   4_000,
	warmupSteps:   4_000,
	setups:        7,
	minPasses:     3,
	serveGrids:    8,
	servePoints:   72,
	serveSteps:    4_000,
	ledgerRepeats: 2,
}

// smokeSize is the self-test size: every code path, seconds of work.
var smokeSize = sizes{
	name:          "smoke",
	paperNs:       []int{2, 16},
	tracedNs:      []int{2, 16},
	replicas:      4,
	paperSteps:    2_000,
	tracedSteps:   500,
	warmupSteps:   2_000,
	setups:        2,
	minPasses:     2,
	serveGrids:    2,
	servePoints:   24,
	serveSteps:    2_000,
	ledgerRepeats: 1,
}

// The grids' axes are pwfsweep's defaults; paper-grid's process counts
// add n = 1024, where the pointer pools outgrow the caches.
var (
	paperAlgos = []struct {
		name string
		w    sweep.Workload
	}{
		{"scu", pwf.SCUWorkload(0, 1)},
		{"fetchinc", pwf.FetchIncWorkload()},
		{"parallel", pwf.ParallelWorkload(1)},
		{"unbounded", pwf.UnboundedWorkload(0)},
		{"stack", pwf.StackWorkload()},
		{"queue", pwf.QueueWorkload()},
	}
	paperScheds = []string{"uniform", "sticky:0.5", "lottery"}
)

// paperJobs expands the paper axes the way pwfsweep's buildJobs does:
// one labeled job per (algorithm, scheduler, n, seed replica).
func paperJobs(ns []int, replicas int, steps uint64) []pwf.SweepJob {
	var jobs []pwf.SweepJob
	for _, a := range paperAlgos {
		for _, name := range paperScheds {
			spec, err := pwf.ParseScheduler(name)
			if err != nil {
				panic(err) // the names above are fixed and valid
			}
			for _, n := range ns {
				for k := 0; k < replicas; k++ {
					jobs = append(jobs, pwf.SweepJob{
						Workload:       a.w,
						N:              n,
						Sched:          spec,
						Steps:          steps,
						WarmupFraction: 0.1,
						Label:          fmt.Sprintf("%s/%s/n%d/r%d", a.name, name, n, k),
					})
				}
			}
		}
	}
	return jobs
}

// encodeResults renders results as canonical NDJSON, the bytes
// pwfsweep -out writes and pwfserve streams.
func encodeResults(results []pwf.SweepResult) ([]byte, error) {
	var buf bytes.Buffer
	_, err := encodeLines(nil, &buf, results, 0, 0, nil)
	return buf.Bytes(), err
}

// encodeLines writes results as canonical NDJSON through
// api.WriteResultLine, one call per result, timing each call as an
// "encode" span under parent. If firstAt is not nil it receives the
// time the first line was written.
func encodeLines(tr *tracer, w io.Writer, results []pwf.SweepResult, parent, sweepID int, firstAt *time.Time) (int64, error) {
	cw := &countingWriter{w: w}
	for i, r := range results {
		t0 := tr.begin()
		if err := api.WriteResultLine(cw, api.ResultFromSweep(r)); err != nil {
			return cw.n, err
		}
		tr.end("encode", t0, parent, sweepID)
		if i == 0 && firstAt != nil {
			*firstAt = time.Now()
		}
	}
	return cw.n, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// lines splits canonical NDJSON into its lines, newlines kept; a
// final line without a newline is dropped, so a torn write reads as a
// missing line.
func lines(b []byte) [][]byte {
	l := bytes.SplitAfter(b, []byte("\n"))
	return l[:len(l)-1]
}

// mismatches returns the indices of the lines of got that differ from
// want, missing and extra lines included.
func mismatches(got, want []byte) map[int]bool {
	g, w := lines(got), lines(want)
	bad := make(map[int]bool)
	for i := 0; i < max(len(g), len(w)); i++ {
		if i >= len(g) || i >= len(w) || !bytes.Equal(g[i], w[i]) {
			bad[i] = true
		}
	}
	return bad
}

// recordedDigest is one entry of digests.json: the SHA-256 of a
// workload unit's canonical NDJSON, produced on the width-1 path, and
// for traced-grid the decoded trace event count.
type recordedDigest struct {
	SHA256 string `json:"sha256"`
	Events uint64 `json:"events,omitempty"`
}

//go:embed digests.json
var digestsJSON []byte

// recorded returns the digest recorded for a workload and seed at the
// full size, if digests.json holds one.
func recorded(size sizes, workload string, seed uint64) (recordedDigest, bool) {
	if size.name != fullSize.name {
		return recordedDigest{}, false
	}
	var table map[string]map[string]recordedDigest
	if err := json.Unmarshal(digestsJSON, &table); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err)) // embedded at build time
	}
	d, ok := table[workload][fmt.Sprint(seed)]
	return d, ok
}

// checkRecorded compares a reference digest with the one recorded for
// the run's seed, if any. When they differ the reference itself is
// wrong, so every point the run attempted counts as failed.
func checkRecorded(rep *report, cfg *runConfig, got recordedDigest) {
	want, ok := recorded(cfg.size, cfg.workload, cfg.seed)
	fmt.Fprintf(cfg.log, "perfbench: %s seed %d width-1 reference: sha256 %s events %d\n",
		cfg.workload, cfg.seed, got.SHA256, got.Events)
	if ok && got != want {
		rep.fail(0, "width-1 reference %+v differs from digests.json %+v", got, want)
		rep.failed = rep.attempted
	}
}

// seedFor derives a sub-seed (a grid's master seed, a generator's
// seed) from the workload seed.
func seedFor(seed uint64, i int) uint64 { return rng.Stream(seed, uint64(i)) }

// warmupOf is the warm-up a job with WarmupFraction 0.1 runs, computed
// as the sweep engine computes it.
func warmupOf(steps uint64) uint64 { return uint64(0.1 * float64(steps)) }

// readFile returns the file's bytes (nil on error, which the caller's
// comparison then reports as a mismatch).
func readFile(path string) []byte {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return b
}

// writeLines writes results to path as canonical NDJSON, one
// unbuffered write per result as pwfsweep -out does.
func writeLines(tr *tracer, path string, results []pwf.SweepResult, parent, sweepID int, firstAt *time.Time) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := encodeLines(tr, f, results, parent, sweepID, firstAt)
	if err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
