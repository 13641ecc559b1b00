package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"pwf"
	"pwf/internal/obs"
)

// layerUnits names every per-layer metric a traced run prints, with
// its unit. Each workload prints all of them; a layer the workload
// does not drive reads 0 and the run says so on standard error.
var layerUnits = map[string]string{
	"sched.draw_ns":                      "ns",
	"sched.batch_draw_ns":                "ns",
	"machine.step_ns":                    "ns",
	"machine.batch_step_ns":              "ns",
	"machine.batch_run_ns":               "ns",
	"scu.completions_per_step":           "ratio",
	"shmem.cas_per_step":                 "ratio",
	"shmem.cas_fail_ratio":               "ratio",
	"sweep.batched_ratio":                "ratio",
	"sweep.fallback_points":              "count",
	"sweep.worker_busy_ratio":            "ratio",
	"sweep.point_ms_p50":                 "ms",
	"api.encode_ns":                      "ns",
	"api.bytes_per_result":               "B",
	"checkpoint.commit_us_p50":           "us",
	"checkpoint.commit_us_p99":           "us",
	"checkpoint.syncs":                   "count",
	"checkpoint.bytes_per_point":         "B",
	"checkpoint.share_pct":               "%",
	"obs.events_per_step":                "ratio",
	"obs.record_ns":                      "ns",
	"obs.flush_ms":                       "ms",
	"server.submit_ms_p50":               "ms",
	"server.accept_to_first_line_ms_p50": "ms",
	"server.lines_per_s":                 "1/s",
	"server.rejected":                    "count",
	"server.jobs_coalesced":              "count",
	"chains.build_ms":                    "ms",
	"chains.cache_hit_ratio":             "ratio",
	"ledger.e2e_step_ns":                 "ns",
	"ledger.residual_pct":                "%",
	"bench.span_overhead_pct":            "%",
}

// notDriven sets every layer metric under the given name prefixes to
// 0 and records why.
func (r *report) notDriven(why string, prefixes ...string) {
	for name, unit := range layerUnits {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				r.layer(name, unit, 0)
			}
		}
	}
	r.layerNotes = append(r.layerNotes, fmt.Sprintf("%s: %s* read 0", why, strings.Join(prefixes, "*, ")))
}

// gridLayers fills the per-layer metrics of a traced grid run from the
// passes' spans, the registry counters and the ledger probes.
func gridLayers(cfg *runConfig, spec gridSpec, rep *report, passes []passStats, jobs []pwf.SweepJob, before, after obs.Snapshot) error {
	var (
		spanned, plain, elapsed, flushes []float64
		busy, wall, spannedWall          time.Duration
		outBytes                         int64
		events, recordSamples            uint64
		recordNS                         int64
	)
	for _, ps := range passes {
		busy += ps.busy
		wall += ps.wall
		elapsed = append(elapsed, ps.elapsed...)
		outBytes += ps.outBytes
		events += ps.events
		if ps.spans {
			spanned = append(spanned, ms(ps.wall))
			spannedWall += ps.wall
			flushes = append(flushes, ms(ps.flush))
			recordNS += ps.recordNS
			recordSamples += ps.recordSamples
		} else {
			plain = append(plain, ms(ps.wall))
		}
	}
	total := float64(len(jobs) * len(passes))
	rep.layer("sweep.batched_ratio", "ratio", float64(delta(before, after, "sweep_batch_jobs"))/total)
	rep.layer("sweep.fallback_points", "count", float64(delta(before, after, "sweep_batch_fallbacks"))/float64(len(passes)))
	rep.layer("sweep.worker_busy_ratio", "ratio", busy.Seconds()/(wall.Seconds()*workers))
	rep.layer("sweep.point_ms_p50", "ms", median(elapsed))
	rep.layer("api.encode_ns", "ns", mean(cfg.tr.durations("encode")))
	rep.layer("api.bytes_per_result", "B", float64(outBytes)/total)
	rep.layer("bench.span_overhead_pct", "%", 100*(median(spanned)-median(plain))/median(plain))

	if spec.checkpoint {
		commits := cfg.tr.durations("commit")
		var committed time.Duration
		for _, c := range commits {
			committed += time.Duration(c)
		}
		rep.layer("checkpoint.commit_us_p50", "us", quantile(commits, 0.50)/1e3)
		rep.layer("checkpoint.commit_us_p99", "us", quantile(commits, 0.99)/1e3)
		rep.layer("checkpoint.syncs", "count", float64(delta(before, after, "checkpoint_syncs"))/float64(len(passes)))
		rep.layer("checkpoint.bytes_per_point", "B", float64(delta(before, after, "checkpoint_bytes_written"))/total)
		rep.layer("checkpoint.share_pct", "%", 100*committed.Seconds()/(spannedWall.Seconds()*workers))
	} else {
		rep.notDriven(cfg.workload+" writes no checkpoint", "checkpoint.")
	}
	if spec.recorder {
		var steps uint64 // simulated per pass
		for _, j := range jobs {
			steps += j.Steps + warmupOf(j.Steps)
		}
		rep.layer("obs.events_per_step", "ratio", float64(events)/(float64(len(passes))*float64(steps)))
		rep.layer("obs.record_ns", "ns", float64(recordNS)/float64(recordSamples))
		rep.layer("obs.flush_ms", "ms", median(flushes))
	} else {
		rep.notDriven(cfg.workload+" records no trace", "obs.")
	}
	rep.notDriven(cfg.workload+" runs in-process without a server and asks for no exact chains", "server.", "chains.")

	var l ledger
	if err := l.run(gridProbes(ledgerNs(spec.ns), spec.steps), cfg.size.ledgerRepeats); err != nil {
		return err
	}
	// paper-grid's points run batched; traced-grid's fall back to
	// the scalar path.
	l.layers(rep, !spec.recorder)
	l.writeConflictTable(cfg.log)
	return nil
}

// ledgerNs picks the grid's n = 16 and its largest n.
func ledgerNs(ns []int) []int {
	out := []int{16}
	if top := slices.Max(ns); top != 16 {
		out = append(out, top)
	}
	return out
}

// gridProbes are the ledger's shapes for the grid workloads: every
// algorithm and scheduler of the paper axes at the given process
// counts, at the grid's step count.
func gridProbes(ns []int, steps uint64) []probe {
	var probes []probe
	for _, j := range paperJobs(ns, 1, steps) {
		probes = append(probes, probe{w: j.Workload, n: j.N, spec: j.Sched, warmup: warmupOf(j.Steps), steps: j.Steps})
	}
	return probes
}
