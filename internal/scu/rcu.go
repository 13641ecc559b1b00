package scu

import (
	"fmt"

	"pwf/internal/machine"
	"pwf/internal/shmem"
)

// RCU models the read-copy-update pattern the paper cites as an
// instance of SCU (Guniguntala et al., the Linux-kernel RCU): a
// version register V points at the current immutable snapshot;
// updaters build a new snapshot privately (the preamble), then
// publish it with a single CAS on V — the scan-and-validate loop with
// s = 1. Readers are wait-free: read V, then read the snapshot it
// points to; they never retry and never interfere with updaters.
//
// Snapshots live in the package's node slab (pool.go), one pool per
// updater. Its precise-GC rule reuses a slot only when it is not the
// current version and no process still holds a reference — which is
// exactly the grace-period guarantee real RCU implementations provide.
//
// A Go-side shadow maps each published version to the snapshot value
// the updater wrote; every reader checks its snapshot against the
// shadow, so a torn or stale read would be detected immediately
// (tests assert Violations() == 0).
type RCU struct {
	nodePool
	base    int
	n       int
	readers int // processes 0..readers-1 read; the rest update
	procs   []*RCUProc

	expect     map[int64]int64 // version ref -> snapshot value
	currentRef int64
	reads      uint64
	writes     uint64
	violations int
}

// NewRCU builds an RCU cell for n processes, of which the first
// readers processes only read. poolSize snapshot slots are allocated
// per updater. The register layout occupies RCULayout(n-readers,
// poolSize) registers from base. At least one updater is required so
// the version register is eventually populated.
func NewRCU(n, readers, poolSize, base int) (*RCU, error) {
	if n < 1 || poolSize < 1 {
		return nil, fmt.Errorf("%w: n=%d poolSize=%d", ErrBadParams, n, poolSize)
	}
	if readers < 0 || readers >= n {
		return nil, fmt.Errorf("%w: readers=%d of n=%d (need 0 <= readers < n)",
			ErrBadParams, readers, n)
	}
	if base < 0 {
		return nil, fmt.Errorf("%w: base %d", ErrBadParams, base)
	}
	pool, err := newNodePool(rcuPool, n-readers, poolSize, 0)
	if err != nil {
		return nil, err
	}
	return &RCU{
		nodePool: pool,
		base:     base,
		n:        n,
		readers:  readers,
		expect:   make(map[int64]int64, len(pool.live)),
	}, nil
}

// rcuPool names the updaters' pools in the exhaustion error.
const rcuPool = "rcu snapshot pool of updater"

// RCULayout returns the register footprint: the version register plus
// one snapshot register per slot.
func RCULayout(updaters, poolSize int) int { return 1 + updaters*poolSize }

func (r *RCU) versionReg() int          { return r.base }
func (r *RCU) snapshotReg(slot int) int { return r.base + 1 + slot }

// Violations returns the number of reads that observed a snapshot
// inconsistent with the version they followed.
func (r *RCU) Violations() int { return r.violations }

// Reads and Writes return completed operation counts.
func (r *RCU) Reads() uint64  { return r.reads }
func (r *RCU) Writes() uint64 { return r.writes }

// Err reports pool exhaustion.
func (r *RCU) Err() error { return r.err }

// Check reports the post-run invariant error (stale-read violations
// or pool exhaustion), byte-identical to what the batched form's
// CheckReplica reports for the same run.
func (r *RCU) Check() error { return rcuCheck(r.violations, r.err) }

// allocate takes a snapshot slot from the updater's pool and retires
// the slot's previous incarnation from the shadow, so the map stays
// bounded.
func (r *RCU) allocate(updater int) int {
	slot := r.nodePool.allocate(updater, r.heldByAny)
	if slot >= 0 && r.tags[slot] > 1 {
		delete(r.expect, packRef(r.tags[slot]-1, slot))
	}
	return slot
}

func (r *RCU) heldByAny(slot int) bool {
	for _, p := range r.procs {
		if p.holds(slot) {
			return true
		}
	}
	return false
}

// onPublish records a successful version swap.
func (r *RCU) onPublish(ref, value int64) {
	if old := r.currentRef; old != 0 {
		r.live[refSlot(old)] = false
		// The shadow entry for the old version is kept until its slot
		// is recycled, so late readers can still be validated.
	}
	r.currentRef = ref
	r.live[refSlot(ref)] = true
	r.expect[ref] = value
	r.writes++
}

// onRead validates a completed read.
func (r *RCU) onRead(ref, snapshot int64) {
	if want, ok := r.expect[ref]; !ok || want != snapshot {
		r.violations++
	}
	r.reads++
}

// rcuPhase is the per-process state machine position.
type rcuPhase int

const (
	rcuReadVersion rcuPhase = iota + 1
	rcuReadSnapshot
	rcuWriteSnapshot
	rcuWriterReadVersion
	rcuPublish
	rcuStuck
)

// RCUProc is one process of the RCU workload: readers loop
// {read V; read snapshot}; updaters loop {write snapshot; read V;
// CAS V}.
type RCUProc struct {
	r   *RCU
	pid int

	phase rcuPhase
	slot  int
	ver   int64
	seq   int64

	readsOK uint64
}

var _ machine.Process = (*RCUProc)(nil)

// Process builds the pid-th workload process (reader if pid <
// readers, updater otherwise).
func (r *RCU) Process(pid int) (*RCUProc, error) {
	if pid < 0 || pid >= r.n {
		return nil, fmt.Errorf("%w: pid %d of %d", ErrBadPID, pid, r.n)
	}
	p := &RCUProc{r: r, pid: pid, slot: -1}
	if pid < r.readers {
		p.phase = rcuReadVersion
	} else {
		p.phase = rcuWriteSnapshot
	}
	r.procs = append(r.procs, p)
	return p, nil
}

// Processes builds all n workload processes.
func (r *RCU) Processes() ([]machine.Process, error) { return processes(r.n, r.Process) }

// Reader reports whether the process is a reader.
func (p *RCUProc) Reader() bool { return p.pid < p.r.readers }

// holds reports whether the process references slot locally.
func (p *RCUProc) holds(slot int) bool {
	if p.slot == slot {
		return true
	}
	return p.ver != 0 && refSlot(p.ver) == slot
}

func (p *RCUProc) updaterIndex() int { return p.pid - p.r.readers }

// Step implements machine.Process.
func (p *RCUProc) Step(mem *shmem.Memory) bool {
	switch p.phase {
	case rcuReadVersion:
		p.ver = mem.Read(p.r.versionReg())
		if p.ver == 0 {
			// Nothing published yet: the read completes empty.
			p.r.reads++
			return true
		}
		p.phase = rcuReadSnapshot
		return false

	case rcuReadSnapshot:
		snap := mem.Read(p.r.snapshotReg(refSlot(p.ver)))
		p.r.onRead(p.ver, snap)
		p.readsOK++
		p.ver = 0 // drop the reference for precise GC
		p.phase = rcuReadVersion
		return true

	case rcuWriteSnapshot:
		if p.slot < 0 {
			p.slot = p.r.allocate(p.updaterIndex())
			if p.slot < 0 {
				p.phase = rcuStuck
				return false
			}
		}
		p.seq++
		mem.Write(p.r.snapshotReg(p.slot), proposal(p.pid, p.seq))
		p.phase = rcuWriterReadVersion
		return false

	case rcuWriterReadVersion:
		p.ver = mem.Read(p.r.versionReg())
		p.phase = rcuPublish
		return false

	case rcuPublish:
		ref := p.r.ref(p.slot)
		if mem.CAS(p.r.versionReg(), p.ver, ref) {
			p.r.onPublish(ref, proposal(p.pid, p.seq))
			p.slot = -1
			p.ver = 0
			p.phase = rcuWriteSnapshot
			return true
		}
		// Validation failed: re-read V and retry the publish. The
		// snapshot itself needs no rewriting (copy stays valid).
		p.phase = rcuWriterReadVersion
		return false

	case rcuStuck:
		mem.Read(p.r.versionReg())
		return false

	default:
		p.phase = rcuReadVersion
		mem.Read(p.r.versionReg())
		return false
	}
}
