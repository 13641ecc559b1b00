package sched

import (
	"errors"
	"fmt"
	"testing"

	"pwf/internal/rng"
)

// batchCase wires one scheduler kind's scalar and batched forms for
// the replica-equivalence tests.
type batchCase struct {
	name    string
	scalar  func(n int, seed uint64) (Scheduler, error)
	batched func(n int, seeds []uint64) (BatchDrawer, error)
}

func batchCases() []batchCase {
	weights := func(n int) []float64 {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = float64(i%5 + 1)
		}
		return ws
	}
	tickets := func(n int) []int {
		ts := make([]int, n)
		for i := range ts {
			ts[i] = i%7 + 1
		}
		return ts
	}
	phases := func(n int) []Phase {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = float64(i + 1)
			b[i] = float64(n - i)
		}
		return []Phase{{Weights: a, Steps: 13}, {Weights: b, Steps: 7}}
	}
	return []batchCase{
		{
			"uniform",
			func(n int, seed uint64) (Scheduler, error) { return NewUniform(n, rng.New(seed)) },
			func(n int, seeds []uint64) (BatchDrawer, error) { return NewUniformBatch(n, seeds) },
		},
		{
			"sticky",
			func(n int, seed uint64) (Scheduler, error) { return NewSticky(n, 0.7, rng.New(seed)) },
			func(n int, seeds []uint64) (BatchDrawer, error) { return NewStickyBatch(n, 0.7, seeds) },
		},
		{
			"weighted",
			func(n int, seed uint64) (Scheduler, error) { return NewWeighted(weights(n), rng.New(seed)) },
			func(n int, seeds []uint64) (BatchDrawer, error) { return NewWeightedBatch(weights(n), seeds) },
		},
		{
			"lottery",
			func(n int, seed uint64) (Scheduler, error) { return NewLottery(tickets(n), rng.New(seed)) },
			func(n int, seeds []uint64) (BatchDrawer, error) { return NewLotteryBatch(tickets(n), seeds) },
		},
		{
			"phased",
			func(n int, seed uint64) (Scheduler, error) { return NewPhased(n, phases(n), rng.New(seed)) },
			func(n int, seeds []uint64) (BatchDrawer, error) { return NewPhasedBatch(n, phases(n), seeds) },
		},
		{
			"roundrobin",
			func(n int, seed uint64) (Scheduler, error) { return NewRoundRobin(n) },
			func(n int, seeds []uint64) (BatchDrawer, error) { return NewRoundRobinBatch(n, len(seeds)) },
		},
		{
			"adversary",
			func(n int, seed uint64) (Scheduler, error) { return NewAdversarial(n, SingleOut(1)) },
			func(n int, seeds []uint64) (BatchDrawer, error) {
				return NewAdversarialBatch(n, len(seeds), SingleOut(1))
			},
		},
	}
}

// TestBatchDrawerMatchesScalar is the batch layer's determinism
// contract: replica r of a batch drawer built from seeds[r] yields
// exactly the pid sequence of the scalar scheduler built with
// rng.New(seeds[r]) — with no crashes, with pre-run crashes, and with
// crashes mid-run (which Sticky's replicas must each survive by
// abandoning a dead last pick). Both forms embed one family core, so
// crash errors and constructor errors must match too.
func TestBatchDrawerMatchesScalar(t *testing.T) {
	const (
		n     = 23
		k     = 5
		steps = 4000
	)
	seeds := make([]uint64, k)
	for r := range seeds {
		seeds[r] = uint64(1000 + 77*r)
	}
	for _, tc := range batchCases() {
		for _, plan := range []struct {
			name        string
			crashes, at int // crash the top crashes pids before step at
		}{{"crash=0", 0, 0}, {"crash=3", 3, 0}, {"crash=3@mid", 3, steps / 2}} {
			t.Run(tc.name+"/"+plan.name, func(t *testing.T) {
				batched, err := tc.batched(n, seeds)
				if err != nil {
					t.Fatal(err)
				}
				scalars := make([]Scheduler, k)
				for r := range scalars {
					if scalars[r], err = tc.scalar(n, seeds[r]); err != nil {
						t.Fatal(err)
					}
				}
				bc, canCrash := batched.(BatchCrasher)
				if !canCrash && plan.crashes > 0 {
					t.Skipf("%s does not support crashes", tc.name)
				}
				// crash applies one crash to both forms and returns the
				// batch error after checking every replica agrees.
				crash := func(pid int) error {
					errB := bc.Crash(pid)
					for r := range scalars {
						if errS := scalars[r].(Crasher).Crash(pid); fmt.Sprint(errS) != fmt.Sprint(errB) {
							t.Fatalf("Crash(%d): batched %v, scalar %v", pid, errB, errS)
						}
					}
					return errB
				}
				pids := make([]int32, k)
				draw := func(step int) {
					if err := batched.NextBatch(pids); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for r := range scalars {
						want, err := scalars[r].Next()
						if err != nil {
							t.Fatalf("scalar step %d replica %d: %v", step, r, err)
						}
						if int(pids[r]) != want {
							t.Fatalf("step %d replica %d: batched pid %d, scalar %d",
								step, r, pids[r], want)
						}
					}
				}
				if got, want := batched.Threshold(), scalars[0].Threshold(); got != want {
					t.Fatalf("Threshold = %v, scalar %v", got, want)
				}
				if batched.K() != k || batched.N() != n {
					t.Fatalf("K/N = %d/%d, want %d/%d", batched.K(), batched.N(), k, n)
				}
				for step := 0; step < steps; step++ {
					if step == plan.at {
						for pid := n - plan.crashes; pid < n; pid++ {
							if err := crash(pid); err != nil {
								t.Fatal(err)
							}
						}
					}
					draw(step)
				}
				if !canCrash {
					return
				}

				// Crash errors, down to a single survivor: out of range,
				// already dead, and finally the last correct process.
				seen := map[error]bool{}
				order := []int{-1, n, 0, 0}
				for pid := 1; pid < n; pid++ {
					order = append(order, pid)
				}
				for _, pid := range order {
					if err := crash(pid); err != nil {
						for _, want := range []error{ErrBadProcess, ErrAlreadyDead, ErrLastProcess} {
							if errors.Is(err, want) {
								seen[want] = true
							}
						}
					}
				}
				if len(seen) != 3 || bc.NumCorrect() != 1 {
					t.Fatalf("crash errors seen %v, %d correct; want all three and 1", seen, bc.NumCorrect())
				}
				for step := steps; step < steps+100; step++ {
					draw(step)
				}
			})
		}
	}

	// Invalid configurations: each scalar/batch constructor pair fails
	// with the same error, through the family core's one validation.
	src, one := rng.New(1), []uint64{1}
	ph := func(ws []float64, steps uint64) []Phase { return []Phase{{Weights: ws, Steps: steps}} }
	for _, c := range []struct {
		name          string
		scalar, batch error
	}{
		{"uniform/empty", errOf(NewUniform(0, src)), errOf(NewUniformBatch(0, one))},
		{"sticky/empty", errOf(NewSticky(0, 0.5, src)), errOf(NewStickyBatch(0, 0.5, one))},
		{"sticky/rho=1", errOf(NewSticky(4, 1, src)), errOf(NewStickyBatch(4, 1, one))},
		{"sticky/rho<0", errOf(NewSticky(4, -0.1, src)), errOf(NewStickyBatch(4, -0.1, one))},
		{"weighted/empty", errOf(NewWeighted(nil, src)), errOf(NewWeightedBatch(nil, one))},
		{"weighted/zero", errOf(NewWeighted([]float64{1, 0}, src)), errOf(NewWeightedBatch([]float64{1, 0}, one))},
		{"weighted/negative", errOf(NewWeighted([]float64{-1, 1}, src)), errOf(NewWeightedBatch([]float64{-1, 1}, one))},
		{"lottery/empty", errOf(NewLottery(nil, src)), errOf(NewLotteryBatch(nil, one))},
		{"lottery/zero", errOf(NewLottery([]int{1, 0}, src)), errOf(NewLotteryBatch([]int{1, 0}, one))},
		{"phased/empty", errOf(NewPhased(0, ph(nil, 1), src)), errOf(NewPhasedBatch(0, ph(nil, 1), one))},
		{"phased/no phases", errOf(NewPhased(2, nil, src)), errOf(NewPhasedBatch(2, nil, one))},
		{"phased/short", errOf(NewPhased(2, ph([]float64{1}, 1), src)), errOf(NewPhasedBatch(2, ph([]float64{1}, 1), one))},
		{"phased/zero steps", errOf(NewPhased(2, ph([]float64{1, 1}, 0), src)), errOf(NewPhasedBatch(2, ph([]float64{1, 1}, 0), one))},
		{"phased/zero weight", errOf(NewPhased(2, ph([]float64{1, 0}, 1), src)), errOf(NewPhasedBatch(2, ph([]float64{1, 0}, 1), one))},
		{"roundrobin/empty", errOf(NewRoundRobin(0)), errOf(NewRoundRobinBatch(0, 1))},
		{"adversary/empty", errOf(NewAdversarial(0, SingleOut(0))), errOf(NewAdversarialBatch(0, 1, SingleOut(0)))},
		{"adversary/nil strategy", errOf(NewAdversarial(2, nil)), errOf(NewAdversarialBatch(2, 1, nil))},
	} {
		if c.scalar == nil || fmt.Sprint(c.scalar) != fmt.Sprint(c.batch) {
			t.Errorf("%s: scalar error %v, batched %v", c.name, c.scalar, c.batch)
		}
	}
	// No randomness: a nil source for a scalar form, no seeds (or
	// zero width) for a batch form.
	for i, err := range []error{
		errOf(NewUniform(4, nil)),
		errOf(NewSticky(4, 0.5, nil)),
		errOf(NewWeighted([]float64{1}, nil)),
		errOf(NewLottery([]int{1}, nil)),
		errOf(NewPhased(1, ph([]float64{1}, 1), nil)),
	} {
		if !errors.Is(err, errNilSource) {
			t.Errorf("scalar %d with a nil source: %v", i, err)
		}
	}
	for i, err := range []error{
		errOf(NewUniformBatch(4, nil)),
		errOf(NewStickyBatch(4, 0.5, nil)),
		errOf(NewWeightedBatch([]float64{1}, nil)),
		errOf(NewLotteryBatch([]int{1}, nil)),
		errOf(NewPhasedBatch(1, ph([]float64{1}, 1), nil)),
		errOf(NewRoundRobinBatch(4, 0)),
		errOf(NewAdversarialBatch(4, 0, SingleOut(0))),
	} {
		if !errors.Is(err, ErrNoReplicas) {
			t.Errorf("batch %d without seeds: %v", i, err)
		}
	}
}

// errOf keeps a constructor's error and drops its value.
func errOf[T any](_ T, err error) error { return err }

// TestBatchDrawerErrors exercises the draw edges; constructor errors
// are pinned against the scalar forms in TestBatchDrawerMatchesScalar.
func TestBatchDrawerErrors(t *testing.T) {
	u, err := NewUniformBatch(4, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := u.NextBatch(make([]int32, 3)); err != ErrBatchLen {
		t.Errorf("NextBatch with wrong buffer length: %v, want ErrBatchLen", err)
	}
}
