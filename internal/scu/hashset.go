package scu

import (
	"fmt"

	"pwf/internal/machine"
	"pwf/internal/shmem"
)

// HashSet is a lock-free hash set in the style the paper cites from
// Fraser [6]: a fixed array of buckets, each an independent Harris
// lock-free list. Operations hash the key to a bucket and run the
// list algorithm there, so disjoint buckets never contend — the
// standard way the SCU pattern scales past a single hot register.
//
// Substitution note (DESIGN.md): Fraser's table also resizes; the
// reproduction uses a fixed bucket count, which preserves the
// contention behaviour the paper's analysis addresses (each bucket is
// an SCU instance) while keeping the register layout static.
type HashSet struct {
	n       int
	buckets []*List
}

// NewHashSet builds a hash set with the given bucket count for n
// processes, with poolSize list-node slots per process per bucket.
// Init must be called before the first step. Layout:
// HashSetLayout(n, buckets, poolSize) registers from base.
func NewHashSet(n, buckets, poolSize, base int) (*HashSet, error) {
	if n < 1 || buckets < 1 || poolSize < 1 {
		return nil, fmt.Errorf("%w: n=%d buckets=%d poolSize=%d",
			ErrBadParams, n, buckets, poolSize)
	}
	if base < 0 {
		return nil, fmt.Errorf("%w: base %d", ErrBadParams, base)
	}
	hs := &HashSet{n: n, buckets: make([]*List, buckets)}
	stride := ListLayout(n, poolSize)
	for b := range hs.buckets {
		l, err := NewList(n, poolSize, base+b*stride)
		if err != nil {
			return nil, err
		}
		hs.buckets[b] = l
	}
	return hs, nil
}

// HashSetLayout returns the register footprint.
func HashSetLayout(n, buckets, poolSize int) int {
	return buckets * ListLayout(n, poolSize)
}

// Init installs every bucket's sentinels.
func (h *HashSet) Init(mem *shmem.Memory) {
	for _, l := range h.buckets {
		l.Init(mem)
	}
}

// Buckets returns the bucket count.
func (h *HashSet) Buckets() int { return len(h.buckets) }

// Violations sums the buckets' shadow-check failures.
func (h *HashSet) Violations() int {
	total := 0
	for _, l := range h.buckets {
		total += l.Violations()
	}
	return total
}

// Size sums the buckets' shadow cardinalities.
func (h *HashSet) Size() int {
	total := 0
	for _, l := range h.buckets {
		total += l.Size()
	}
	return total
}

// Err returns the first bucket error, if any.
func (h *HashSet) Err() error {
	for b, l := range h.buckets {
		if err := l.Err(); err != nil {
			return fmt.Errorf("bucket %d: %w", b, err)
		}
	}
	return nil
}

// Audit audits every bucket.
func (h *HashSet) Audit(mem *shmem.Memory) error {
	for b, l := range h.buckets {
		if err := l.Audit(mem); err != nil {
			return fmt.Errorf("bucket %d: %w", b, err)
		}
	}
	return nil
}

// bucketFor maps a key to its bucket index.
func (h *HashSet) bucketFor(key int64) int {
	x := uint64(key) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	return int(x % uint64(len(h.buckets)))
}

// HashSetProc is one process running a mixed workload against a
// HashSet: each operation hashes its key to a bucket and runs that
// bucket's Harris-list machine.
type HashSetProc struct {
	h        *HashSet
	pid      int
	keyspace int64
	seq      int64

	bucketProcs []*ListProc
	active      int // bucket of the in-flight op, -1 if none

	pendingOp  listOp
	pendingKey int64
	ops        uint64
}

var _ machine.Process = (*HashSetProc)(nil)

// Process builds the pid-th workload process over keys 1..keyspace.
func (h *HashSet) Process(pid int, keyspace int64) (*HashSetProc, error) {
	if pid < 0 || pid >= h.n {
		return nil, fmt.Errorf("%w: pid %d of %d", ErrBadPID, pid, h.n)
	}
	if keyspace < 1 {
		return nil, fmt.Errorf("%w: keyspace %d", ErrBadParams, keyspace)
	}
	p := &HashSetProc{h: h, pid: pid, keyspace: keyspace, active: -1}
	p.bucketProcs = make([]*ListProc, len(h.buckets))
	for b, l := range h.buckets {
		lp, err := l.Process(pid, keyspace)
		if err != nil {
			return nil, err
		}
		lp.source = p.nextForBucket
		p.bucketProcs[b] = lp
	}
	return p, nil
}

// Processes builds all n workload processes.
func (h *HashSet) Processes(keyspace int64) ([]machine.Process, error) {
	return processes(h.n, func(pid int) (*HashSetProc, error) { return h.Process(pid, keyspace) })
}

// Ops returns the number of completed operations.
func (p *HashSetProc) Ops() uint64 { return p.ops }

// nextForBucket feeds the pending (op, key) into the active bucket's
// list machine.
func (p *HashSetProc) nextForBucket() (listOp, int64) {
	return p.pendingOp, p.pendingKey
}

// Step implements machine.Process.
func (p *HashSetProc) Step(mem *shmem.Memory) bool {
	if p.active < 0 {
		p.seq++
		switch p.seq % 3 {
		case 1:
			p.pendingOp = listInsert
		case 2:
			p.pendingOp = listContains
		default:
			p.pendingOp = listDelete
		}
		x := uint64(p.pid+1)*0x94d049bb133111eb + uint64(p.seq)*0x9e3779b97f4a7c15
		x ^= x >> 31
		p.pendingKey = int64(x%uint64(p.keyspace)) + 1
		p.active = p.h.bucketFor(p.pendingKey)
	}
	if p.bucketProcs[p.active].Step(mem) {
		p.active = -1
		p.ops++
		return true
	}
	return false
}
