package scu

import (
	"errors"
	"testing"

	"pwf/internal/machine"
	"pwf/internal/rng"
	"pwf/internal/sched"
	"pwf/internal/shmem"
)

func newList(t *testing.T, n, poolSize int) (*List, *shmem.Memory) {
	t.Helper()
	l, err := NewList(n, poolSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := newMemory(t, ListLayout(n, poolSize))
	l.Init(mem)
	return l, mem
}

func TestListValidation(t *testing.T) {
	if _, err := NewList(0, 4, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("n=0: %v", err)
	}
	if _, err := NewList(2, 0, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("poolSize=0: %v", err)
	}
	l, err := NewList(2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Process(0, 8); !errors.Is(err, ErrBadParams) {
		t.Errorf("uninitialized: %v", err)
	}
	mem := newMemory(t, ListLayout(2, 4))
	l.Init(mem)
	if _, err := l.Process(5, 8); !errors.Is(err, ErrBadPID) {
		t.Errorf("bad pid: %v", err)
	}
	if _, err := l.Process(0, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("keyspace=0: %v", err)
	}
}

func TestListRefEncoding(t *testing.T) {
	l, _ := newList(t, 2, 4)
	for slot := 0; slot < 4; slot++ {
		l.tags[slot] = int64(slot*7 + 1)
		ref := l.nodeRef(slot)
		if listSlot(ref) != slot {
			t.Fatalf("slot round-trip failed for %d", slot)
		}
		if listMarked(ref) {
			t.Fatal("fresh ref marked")
		}
		m := listMark(ref)
		if !listMarked(m) || listSlot(m) != slot {
			t.Fatal("mark broke the ref")
		}
		if listClean(m) != ref {
			t.Fatal("clean did not invert mark")
		}
	}
}

func TestListInitAudit(t *testing.T) {
	l, mem := newList(t, 2, 4)
	if err := l.Audit(mem); err != nil {
		t.Fatalf("empty list audit: %v", err)
	}
	if l.Size() != 0 {
		t.Fatalf("Size = %d, want 0", l.Size())
	}
}

func TestListSoloOperations(t *testing.T) {
	l, mem := newList(t, 1, 8)
	p, err := l.Process(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Drive 60 operations (the op mix cycles insert/contains/delete).
	completed := 0
	for step := 0; completed < 60; step++ {
		if step > 100000 {
			t.Fatal("solo list stuck")
		}
		if p.Step(mem) {
			completed++
			if err := l.Audit(mem); err != nil {
				t.Fatalf("audit after op %d: %v", completed, err)
			}
		}
	}
	if l.Violations() != 0 {
		t.Fatalf("violations: %d", l.Violations())
	}
	if l.Err() != nil {
		t.Fatal(l.Err())
	}
	if l.Inserts() == 0 || l.Deletes() == 0 || l.ContainsN() == 0 {
		t.Fatalf("op mix degenerate: ins=%d del=%d con=%d",
			l.Inserts(), l.Deletes(), l.ContainsN())
	}
}

func TestListSoloSemantics(t *testing.T) {
	// With keyspace 1 and one process, the op cycle is
	// insert(1)=true, contains(1)=true, delete(1)=true, repeating.
	l, mem := newList(t, 1, 8)
	p, err := l.Process(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for step := 0; completed < 12; step++ {
		if step > 10000 {
			t.Fatal("stuck")
		}
		if p.Step(mem) {
			completed++
		}
	}
	for i, r := range p.Results() {
		if !r {
			t.Fatalf("op %d returned false; solo cycle should always succeed", i)
		}
	}
	if l.Violations() != 0 {
		t.Fatalf("violations: %d", l.Violations())
	}
}

func TestListConcurrentLinearizable(t *testing.T) {
	const (
		n        = 6
		poolSize = 16
		steps    = 200000
		keyspace = 8 // heavy contention
	)
	l, mem := newList(t, n, poolSize)
	procs, err := l.Processes(keyspace)
	if err != nil {
		t.Fatal(err)
	}
	sim := uniformSim(t, mem, procs, 71)
	for chunk := 0; chunk < 20; chunk++ {
		if err := sim.Run(steps / 20); err != nil {
			t.Fatal(err)
		}
		if err := l.Audit(mem); err != nil {
			t.Fatalf("audit after chunk %d: %v", chunk, err)
		}
	}
	if l.Err() != nil {
		t.Fatal(l.Err())
	}
	if l.Violations() != 0 {
		t.Fatalf("violations: %d", l.Violations())
	}
	if sim.TotalCompletions() == 0 {
		t.Fatal("no completions")
	}
	if starved := sim.StarvedProcesses(); len(starved) != 0 {
		t.Fatalf("starved: %v", starved)
	}
}

func TestListConcurrentWideKeyspace(t *testing.T) {
	// Low contention exercises the multi-node walks.
	const n = 4
	l, mem := newList(t, n, 64)
	procs, err := l.Processes(100)
	if err != nil {
		t.Fatal(err)
	}
	sim := uniformSim(t, mem, procs, 72)
	if err := sim.Run(150000); err != nil {
		t.Fatal(err)
	}
	if err := l.Audit(mem); err != nil {
		t.Fatal(err)
	}
	if l.Violations() != 0 {
		t.Fatalf("violations: %d", l.Violations())
	}
	if l.Err() != nil {
		t.Fatal(l.Err())
	}
}

func TestListStickySchedulerStress(t *testing.T) {
	// Long solo runs interleaved with abrupt switches stress the
	// helping/cleanup paths differently from uniform scheduling.
	const n = 4
	l, mem := newList(t, n, 32)
	procs, err := l.Processes(6)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sched.NewSticky(n, 0.95, rng.New(73))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := machine.New(mem, procs, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(200000); err != nil {
		t.Fatal(err)
	}
	if err := l.Audit(mem); err != nil {
		t.Fatal(err)
	}
	if l.Violations() != 0 {
		t.Fatalf("violations: %d", l.Violations())
	}
}

func TestExhaustiveListTwoProcesses(t *testing.T) {
	// Model checking in the small: every schedule of 2 processes over
	// 16 steps, tiny keyspace, audit at the end of each.
	const depth = 16
	forEverySchedule(depth, func(mask uint32) {
		l, err := NewList(2, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := shmem.New(ListLayout(2, 8))
		if err != nil {
			t.Fatal(err)
		}
		l.Init(mem)
		procs := make([]*ListProc, 2)
		for pid := range procs {
			p, err := l.Process(pid, 2)
			if err != nil {
				t.Fatal(err)
			}
			procs[pid] = p
		}
		for i := 0; i < depth; i++ {
			procs[(mask>>i)&1].Step(mem)
		}
		if l.Violations() != 0 {
			t.Fatalf("schedule %b: %d violations", mask, l.Violations())
		}
		if err := l.Audit(mem); err != nil {
			t.Fatalf("schedule %b: %v", mask, err)
		}
		if l.Err() != nil {
			t.Fatalf("schedule %b: %v", mask, l.Err())
		}
	})
}
