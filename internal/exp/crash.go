package exp

import (
	"pwf/internal/chains"
	"pwf/internal/sweep"
)

// CrashLatency reproduces Corollary 2: with k ≤ n correct processes,
// the stationary latencies depend on k, not n. We run SCU(0,1) with n
// processes, crash n−k of them, and compare the measured system
// latency with the k-process (and n-process) exact chain values.
func CrashLatency(cfg Config) (*Table, error) {
	n := cfg.num(32, 12)
	window := cfg.steps(2000000, 200000)

	ks := []int{n, n / 2, n / 4}
	t := &Table{
		ID:    "E12",
		Title: "Corollary 2: latency depends on the number of correct processes k",
		Header: []string{
			"n", "k correct", "W sim", "W exact(k)", "W exact(n)",
		},
	}
	for _, k := range ks {
		if k < 1 {
			continue
		}
		res, err := sweep.RunJob(sweep.Job{
			Workload:       sweep.Workload{Kind: sweep.SCU, S: 1},
			N:              n,
			Steps:          window,
			WarmupFraction: sweep.DefaultWarmupFraction,
			Crash:          n - k,
		}, cfg.Seed+uint64(k), nil)
		if err != nil {
			return nil, err
		}
		wSim := res.Latencies.System

		exactK, err := exactSCULatency(k)
		if err != nil {
			return nil, err
		}
		exactN, err := exactSCULatency(n)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, k, wSim, exactK, exactN)
	}
	t.Note = "the simulated latency with n-k crashed processes matches the exact " +
		"k-process chain, not the n-process one: stationary behaviour sees only correct processes"
	return t, nil
}

func exactSCULatency(k int) (float64, error) {
	sys, _, err := chains.SCUSystem(k)
	if err != nil {
		return 0, err
	}
	return sys.SystemLatency()
}
