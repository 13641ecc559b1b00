package scu

import (
	"fmt"

	"pwf/internal/machine"
	"pwf/internal/shmem"
)

// listOp is the operation kind a ListProc is executing.
type listOp int

const (
	listInsert listOp = iota + 1
	listContains
	listDelete
)

// listPhase is the per-process program counter of the Harris list
// state machine. The search sub-machine (lsSearch*) is shared by all
// three operations; op-specific phases follow it.
type listPhase int

const (
	lsSearchStart listPhase = iota + 1
	lsSearchReadNext
	lsSearchReadKey
	lsSearchRecheck
	lsSearchCleanupCAS
	lsInsertWriteKey
	lsInsertWriteNext
	lsInsertCAS
	lsDeleteReadNext
	lsDeleteMarkCAS
	lsDeleteUnlinkCAS
	lsStuck
)

// ListProc is one process running a mixed insert/contains/delete
// workload against a List. Keys come from a small universe so the
// processes contend.
type ListProc struct {
	l   *List
	pid int

	keyspace int64
	seq      int64
	op       listOp
	key      int64
	opStart  uint64 // mem step count at operation start
	started  bool

	// source, when set, supplies the next (op, key) instead of the
	// built-in pseudo-random mix; used by HashSet to route externally
	// chosen operations into a bucket.
	source func() (listOp, int64)

	// Search machine state.
	t, tNext       int64
	tKey           int64
	left, leftNext int64
	right          int64
	rightKey       int64
	afterSearch    listPhase
	cleanupOnly    bool // post-delete helping search: complete after it

	// Insert state.
	slot       int
	keyWritten bool

	// Delete state.
	rightNext int64

	phase   listPhase
	results []bool
	ops     uint64
}

var _ machine.Process = (*ListProc)(nil)

// Process builds the pid-th workload process. keyspace bounds the key
// universe (keys 1..keyspace); smaller means more contention.
func (l *List) Process(pid int, keyspace int64) (*ListProc, error) {
	if pid < 0 || pid >= l.n {
		return nil, fmt.Errorf("%w: pid %d of %d", ErrBadPID, pid, l.n)
	}
	if keyspace < 1 {
		return nil, fmt.Errorf("%w: keyspace %d", ErrBadParams, keyspace)
	}
	if !l.initialized {
		return nil, fmt.Errorf("%w: list not initialized (call Init)", ErrBadParams)
	}
	p := &ListProc{l: l, pid: pid, keyspace: keyspace, slot: -1}
	l.procs = append(l.procs, p)
	return p, nil
}

// Processes builds all n workload processes with a shared keyspace.
func (l *List) Processes(keyspace int64) ([]machine.Process, error) {
	return processes(l.n, func(pid int) (*ListProc, error) { return l.Process(pid, keyspace) })
}

// Results returns the boolean outcomes of this process's completed
// operations, in order.
func (p *ListProc) Results() []bool {
	out := make([]bool, len(p.results))
	copy(out, p.results)
	return out
}

// Ops returns the number of completed operations.
func (p *ListProc) Ops() uint64 { return p.ops }

// holds reports whether any local reference pins slot.
func (p *ListProc) holds(slot int) bool {
	if p.slot == slot {
		return true
	}
	for _, ref := range [...]int64{p.t, p.tNext, p.left, p.leftNext, p.right, p.rightNext} {
		if ref != 0 && listSlot(listClean(ref)) == slot {
			return true
		}
	}
	return false
}

// nextOp prepares the next operation: the kind cycles
// insert/contains/delete and the key walks a deterministic
// pseudo-random sequence over the keyspace.
func (p *ListProc) nextOp(mem *shmem.Memory) {
	p.seq++
	if p.source != nil {
		p.op, p.key = p.source()
	} else {
		switch p.seq % 3 {
		case 1:
			p.op = listInsert
		case 2:
			p.op = listContains
		default:
			p.op = listDelete
		}
		h := uint64(p.pid+1)*0x9e3779b97f4a7c15 + uint64(p.seq)*0xbf58476d1ce4e5b9
		h ^= h >> 29
		p.key = int64(h%uint64(p.keyspace)) + 1
	}
	p.opStart = mem.Steps()
	p.started = true
	p.keyWritten = false
	p.cleanupOnly = false
	switch p.op {
	case listInsert:
		p.afterSearch = lsInsertWriteKey
	case listDelete:
		p.afterSearch = lsDeleteReadNext
	default:
		p.afterSearch = 0 // contains completes right after the search
	}
	p.phase = lsSearchStart
}

// completeChecked finishes an operation whose linearization point is
// internal to its search: it validates the *observed presence* of the
// key against the shadow's presence intervals over the operation
// window, then records the result.
func (p *ListProc) completeChecked(mem *shmem.Memory, result, observedPresent bool) bool {
	p.l.checkResult(p.key, observedPresent, p.opStart, mem.Steps())
	return p.complete(mem, result)
}

// complete finishes the current operation with the given result.
func (p *ListProc) complete(mem *shmem.Memory, result bool) bool {
	p.results = append(p.results, result)
	p.ops++
	switch p.op {
	case listInsert:
		p.l.inserts++
	case listDelete:
		p.l.deletes++
	default:
		p.l.contains++
	}
	p.t, p.tNext, p.left, p.leftNext, p.right, p.rightNext = 0, 0, 0, 0, 0, 0
	p.started = false
	return true
}

// Step implements machine.Process: one shared-memory operation per
// call, following Harris's algorithm.
func (p *ListProc) Step(mem *shmem.Memory) bool {
	if !p.started {
		p.nextOp(mem)
	}
	switch p.phase {
	case lsSearchStart:
		head := p.l.nodeRef(p.l.headSlot())
		p.t = head
		p.tNext = mem.Read(p.l.nextReg(p.l.headSlot()))
		p.left, p.leftNext = head, p.tNext
		return p.searchAdvance(mem)

	case lsSearchReadNext:
		p.tNext = mem.Read(p.l.nextReg(listSlot(listClean(p.t))))
		p.phase = lsSearchReadKey
		return false

	case lsSearchReadKey:
		p.tKey = mem.Read(p.l.keyReg(listSlot(listClean(p.t))))
		if listMarked(p.tNext) || p.tKey < p.key {
			return p.searchAdvance(mem)
		}
		// Found the right node.
		p.right = listClean(p.t)
		p.rightKey = p.tKey
		return p.searchFinish(mem)

	case lsSearchRecheck:
		// Fresh read of right.next: a marked right means a deletion
		// raced us; search again.
		next := mem.Read(p.l.nextReg(listSlot(p.right)))
		if listMarked(next) {
			p.phase = lsSearchStart
			return false
		}
		return p.searchDone(mem)

	case lsSearchCleanupCAS:
		// Unlink the marked chain between left and right.
		if mem.CAS(p.l.nextReg(listSlot(listClean(p.left))), p.leftNext, p.right) {
			p.l.onUnlink(mem, p.leftNext, p.right)
			p.leftNext = p.right
			if listSlot(p.right) != p.l.tailSlot() {
				p.phase = lsSearchRecheck
				return false
			}
			return p.searchDone(mem)
		}
		p.phase = lsSearchStart
		return false

	case lsInsertWriteKey:
		if p.slot < 0 {
			p.slot = p.l.allocate(p.pid, p.l.heldByAny)
			if p.slot < 0 {
				p.phase = lsStuck
				return false
			}
		}
		mem.Write(p.l.keyReg(p.slot), p.key)
		p.keyWritten = true
		p.phase = lsInsertWriteNext
		return false

	case lsInsertWriteNext:
		mem.Write(p.l.nextReg(p.slot), p.right)
		p.phase = lsInsertCAS
		return false

	case lsInsertCAS:
		newRef := p.l.nodeRef(p.slot)
		if mem.CAS(p.l.nextReg(listSlot(listClean(p.left))), p.right, newRef) {
			p.l.onInsert(p.key, newRef, mem.Steps())
			p.slot = -1
			return p.complete(mem, true)
		}
		// Lost the race: search again, keep the allocated node (its
		// key is already written; only next needs refreshing).
		p.afterSearch = lsInsertWriteNext
		p.phase = lsSearchStart
		return false

	case lsDeleteReadNext:
		p.rightNext = mem.Read(p.l.nextReg(listSlot(p.right)))
		if listMarked(p.rightNext) {
			// Someone else is deleting this node; retry from search.
			p.afterSearch = lsDeleteReadNext
			p.phase = lsSearchStart
			return false
		}
		p.phase = lsDeleteMarkCAS
		return false

	case lsDeleteMarkCAS:
		reg := p.l.nextReg(listSlot(p.right))
		if mem.CAS(reg, p.rightNext, listMark(p.rightNext)) {
			// Logical deletion: the linearization point.
			p.l.onDelete(p.key, mem.Steps())
			p.phase = lsDeleteUnlinkCAS
			return false
		}
		p.phase = lsDeleteReadNext
		return false

	case lsDeleteUnlinkCAS:
		if mem.CAS(p.l.nextReg(listSlot(listClean(p.left))), p.right, p.rightNext) {
			p.l.live[listSlot(p.right)] = false
			return p.complete(mem, true)
		}
		// Physical removal failed: help via a cleanup search, then
		// complete.
		p.cleanupOnly = true
		p.afterSearch = 0
		p.phase = lsSearchStart
		return false

	case lsStuck:
		mem.Read(p.l.nextReg(p.l.headSlot()))
		return false

	default:
		p.phase = lsSearchStart
		mem.Read(p.l.nextReg(p.l.headSlot()))
		return false
	}
}

// searchAdvance consumes the current (t, tNext) pair locally and
// either steps to the next node (whose next pointer the following
// phase will read) or finishes the walk at the tail. It performs no
// memory operation itself; its callers have just taken one this turn.
func (p *ListProc) searchAdvance(mem *shmem.Memory) bool {
	if !listMarked(p.tNext) {
		p.left = listClean(p.t)
		p.leftNext = p.tNext
	}
	tgt := listClean(p.tNext)
	p.t = tgt
	if listSlot(tgt) == p.l.tailSlot() {
		p.right = tgt
		p.rightKey = int64(^uint64(0) >> 1) // +inf
		return p.searchFinish(mem)
	}
	p.phase = lsSearchReadNext
	return false
}

// searchFinish decides between the adjacent case and the cleanup CAS.
// Called after a memory step has been consumed this turn; it only
// sets up the next phase.
func (p *ListProc) searchFinish(mem *shmem.Memory) bool {
	if p.leftNext == p.right {
		if listSlot(p.right) != p.l.tailSlot() {
			p.phase = lsSearchRecheck
			return false
		}
		return p.searchDone(mem)
	}
	p.phase = lsSearchCleanupCAS
	return false
}

// searchDone routes to the operation-specific continuation. It
// consumes no memory step itself; callers have just taken one.
func (p *ListProc) searchDone(mem *shmem.Memory) bool {
	if p.cleanupOnly {
		// Helping search after a failed physical delete: done.
		return p.complete(mem, true)
	}
	found := listSlot(p.right) != p.l.tailSlot() && p.rightKey == p.key
	switch p.op {
	case listContains:
		return p.completeChecked(mem, found, found)
	case listInsert:
		if found {
			// The insert failed because the key was observed present.
			return p.completeChecked(mem, false, true)
		}
		p.phase = p.afterSearch
		return false
	case listDelete:
		if !found {
			return p.completeChecked(mem, false, false)
		}
		p.phase = p.afterSearch
		return false
	default:
		p.phase = lsSearchStart
		return false
	}
}
