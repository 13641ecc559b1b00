package scu

import (
	"fmt"

	"pwf/internal/machine"
	"pwf/internal/shmem"
)

// WFUniversal is a wait-free universal construction in the style of
// Herlihy [9]: operations are announced in a shared array, and every
// process that builds a new object version *helps* by applying all
// announced-but-unapplied operations, not just its own. The object
// version is an immutable node holding the sequential state, a
// per-process applied-sequence vector, and a per-process response
// vector; a single CAS on the root register installs a new node.
//
// Wait-freedom: once a process has announced operation s, any install
// whose construction began after the announcement includes it; a
// process's CAS can fail only because someone else installed, so
// after at most two failed attempts its operation has been applied by
// a helper and the process finds its response in the current node.
// Each attempt costs Θ(n) steps, so every operation completes within
// O(n) of the caller's own steps under ANY schedule — this is the
// "specialized helping mechanism" whose cost the paper contrasts with
// plain lock-free SCU (experiment E15).
//
// Register layout from base:
//
//	base                         root register R (tagged node ref)
//	base+1 .. base+n             announceOp[p]
//	base+1+n .. base+2n          announceSeq[p]
//	base+1+2n ...                node slab; node = state + appliedSeq[n] + resp[n]
//
// Nodes live in the package's node slab (pool.go) and are reclaimed
// by its precise-GC rule.
// A Go-side shadow replays every committed batch on the sequential
// Object, checking state, responses, and exactly-once application.
type WFUniversal struct {
	nodePool
	obj   Object
	base  int
	n     int
	procs []*WFUniversalProc

	state       int64   // shadow sequential state
	shadowResp  []int64 // last response per process (shadow)
	shadowSeq   []int64 // applied seq per process (shadow)
	currentRef  int64
	ops         uint64
	installs    uint64
	violations  int
	initialized bool
}

// NewWFUniversal builds the wait-free universal object for n
// processes with poolSize node slots per process. Init must be called
// on the memory before the first step.
func NewWFUniversal(obj Object, n, poolSize, base int) (*WFUniversal, error) {
	if obj == nil {
		return nil, fmt.Errorf("%w: nil object", ErrBadParams)
	}
	if n < 1 || poolSize < 2 {
		return nil, fmt.Errorf("%w: n=%d poolSize=%d (need poolSize >= 2)", ErrBadParams, n, poolSize)
	}
	if base < 0 {
		return nil, fmt.Errorf("%w: base %d", ErrBadParams, base)
	}
	pool, err := newNodePool("wf-universal node pool of process", n, poolSize, 1) // +1 for the initial node
	if err != nil {
		return nil, err
	}
	return &WFUniversal{
		nodePool:   pool,
		obj:        obj,
		base:       base,
		n:          n,
		shadowResp: make([]int64, n),
		shadowSeq:  make([]int64, n),
	}, nil
}

// WFUniversalLayout returns the register footprint for n processes
// with poolSize node slots per process.
func WFUniversalLayout(n, poolSize int) int {
	nodeSize := 1 + 2*n
	return 1 + 2*n + (n*poolSize+1)*nodeSize
}

func (u *WFUniversal) rootReg() int            { return u.base }
func (u *WFUniversal) announceOpReg(p int) int { return u.base + 1 + p }
func (u *WFUniversal) announceSeqReg(p int) int {
	return u.base + 1 + u.n + p
}

func (u *WFUniversal) nodeSize() int { return 1 + 2*u.n }
func (u *WFUniversal) nodeBase(slot int) int {
	return u.base + 1 + 2*u.n + slot*u.nodeSize()
}
func (u *WFUniversal) stateReg(slot int) int      { return u.nodeBase(slot) }
func (u *WFUniversal) appliedReg(slot, q int) int { return u.nodeBase(slot) + 1 + q }
func (u *WFUniversal) respReg(slot, q int) int    { return u.nodeBase(slot) + 1 + u.n + q }
func (u *WFUniversal) initialSlot() int           { return u.n * u.poolSize }

// Init installs the initial node (state 0, nothing applied) and
// points the root at it. Setup only; no simulated steps.
func (u *WFUniversal) Init(mem *shmem.Memory) {
	ref := u.install(u.initialSlot())
	mem.Poke(u.rootReg(), ref)
	u.currentRef = ref
	u.initialized = true
}

// Violations returns shadow-check failures.
func (u *WFUniversal) Violations() int { return u.violations }

// Ops returns the number of operations applied (across all batches).
func (u *WFUniversal) Ops() uint64 { return u.ops }

// Installs returns the number of successful root CASes.
func (u *WFUniversal) Installs() uint64 { return u.installs }

// State returns the shadow sequential state.
func (u *WFUniversal) State() int64 { return u.state }

// Err reports pool exhaustion.
func (u *WFUniversal) Err() error { return u.err }

func (u *WFUniversal) heldByAny(slot int) bool {
	for _, p := range u.procs {
		if p.holds(slot) {
			return true
		}
	}
	return false
}

// appliedOp describes one operation an installer applied in its batch.
type appliedOp struct {
	q    int
	seq  int64
	op   int64
	resp int64
}

// onInstall validates a committed batch against the sequential shadow.
func (u *WFUniversal) onInstall(oldRef, newRef int64, newState int64, batch []appliedOp) {
	for _, a := range batch {
		if a.seq != u.shadowSeq[a.q]+1 {
			u.violations++ // skipped or duplicated operation
		}
		wantState, wantResp := u.obj.Apply(u.state, a.op)
		if wantResp != a.resp {
			u.violations++
		}
		u.state = wantState
		u.shadowSeq[a.q] = a.seq
		u.shadowResp[a.q] = wantResp
		u.ops++
	}
	if u.state != newState {
		u.violations++
	}
	u.live[refSlot(oldRef)] = false
	u.live[refSlot(newRef)] = true
	u.currentRef = newRef
	u.installs++
}

// wfPhase is the per-process program counter.
type wfPhase int

const (
	wfAnnounceOp wfPhase = iota + 1
	wfAnnounceSeq
	wfReadRoot
	wfReadMyApplied
	wfReadMyResp
	wfReadState
	wfReadApplied
	wfReadAnnSeq
	wfReadAnnOp
	wfReadOldResp
	wfWriteState
	wfWriteApplied
	wfWriteResp
	wfCAS
	wfStuck
)

// WFUniversalProc is one process applying an operation stream to a
// WFUniversal object.
type WFUniversalProc struct {
	u   *WFUniversal
	pid int
	ops func(pid int, seq int64) int64

	phase wfPhase
	seq   int64 // current operation sequence number (1-based)
	op    int64

	cur  int64 // root node ref being worked against
	slot int   // node being built, -1 if none

	// Build scratch.
	idx        int
	buildState int64
	oldApplied []int64
	annSeq     []int64
	annOp      []int64
	newApplied []int64
	newResp    []int64
	batch      []appliedOp

	responses []int64
	ownSteps  uint64 // steps spent on the current operation
	maxSteps  uint64 // worst own-steps for any completed operation
}

var _ machine.Process = (*WFUniversalProc)(nil)

// Process builds the pid-th process with the given operation stream.
func (u *WFUniversal) Process(pid int, ops func(pid int, seq int64) int64) (*WFUniversalProc, error) {
	if pid < 0 || pid >= u.n {
		return nil, fmt.Errorf("%w: pid %d of %d", ErrBadPID, pid, u.n)
	}
	if ops == nil {
		return nil, fmt.Errorf("%w: nil op stream", ErrBadParams)
	}
	if !u.initialized {
		return nil, fmt.Errorf("%w: WFUniversal not initialized (call Init)", ErrBadParams)
	}
	p := &WFUniversalProc{
		u: u, pid: pid, ops: ops,
		phase: wfAnnounceOp, seq: 1, slot: -1,
		oldApplied: make([]int64, u.n),
		annSeq:     make([]int64, u.n),
		annOp:      make([]int64, u.n),
		newApplied: make([]int64, u.n),
		newResp:    make([]int64, u.n),
	}
	u.procs = append(u.procs, p)
	return p, nil
}

// Processes builds all n processes sharing one operation stream.
func (u *WFUniversal) Processes(ops func(pid int, seq int64) int64) ([]machine.Process, error) {
	return processes(u.n, func(pid int) (*WFUniversalProc, error) { return u.Process(pid, ops) })
}

// Responses returns this process's operation responses in order.
func (p *WFUniversalProc) Responses() []int64 {
	out := make([]int64, len(p.responses))
	copy(out, p.responses)
	return out
}

// MaxOwnSteps returns the largest number of the process's own steps
// any single completed operation took — the empirical wait-freedom
// bound (O(n) regardless of schedule).
func (p *WFUniversalProc) MaxOwnSteps() uint64 { return p.maxSteps }

// holds reports whether the process references slot locally.
func (p *WFUniversalProc) holds(slot int) bool {
	if p.slot == slot {
		return true
	}
	return p.cur != 0 && refSlot(p.cur) == slot
}

// complete finishes the current operation with the given response.
func (p *WFUniversalProc) complete(resp int64) {
	p.responses = append(p.responses, resp)
	if p.ownSteps > p.maxSteps {
		p.maxSteps = p.ownSteps
	}
	p.ownSteps = 0
	p.seq++
	p.cur = 0
	p.phase = wfAnnounceOp
}

// Step implements machine.Process. See the type comment for the
// protocol; each case is exactly one shared-memory operation.
func (p *WFUniversalProc) Step(mem *shmem.Memory) bool {
	p.ownSteps++
	switch p.phase {
	case wfAnnounceOp:
		p.op = p.ops(p.pid, p.seq)
		mem.Write(p.u.announceOpReg(p.pid), p.op)
		p.phase = wfAnnounceSeq
		return false

	case wfAnnounceSeq:
		mem.Write(p.u.announceSeqReg(p.pid), p.seq)
		p.phase = wfReadRoot
		return false

	case wfReadRoot:
		p.cur = mem.Read(p.u.rootReg())
		p.phase = wfReadMyApplied
		return false

	case wfReadMyApplied:
		applied := mem.Read(p.u.appliedReg(refSlot(p.cur), p.pid))
		if applied >= p.seq {
			p.phase = wfReadMyResp
			return false
		}
		p.phase = wfReadState
		return false

	case wfReadMyResp:
		resp := mem.Read(p.u.respReg(refSlot(p.cur), p.pid))
		p.complete(resp)
		return true

	case wfReadState:
		p.buildState = mem.Read(p.u.stateReg(refSlot(p.cur)))
		p.idx = 0
		p.phase = wfReadApplied
		return false

	case wfReadApplied:
		p.oldApplied[p.idx] = mem.Read(p.u.appliedReg(refSlot(p.cur), p.idx))
		p.idx++
		if p.idx == p.u.n {
			p.idx = 0
			p.phase = wfReadAnnSeq
		}
		return false

	case wfReadAnnSeq:
		p.annSeq[p.idx] = mem.Read(p.u.announceSeqReg(p.idx))
		p.idx++
		if p.idx == p.u.n {
			p.idx = 0
			p.phase = wfReadAnnOp
		}
		return false

	case wfReadAnnOp:
		// Read the op value for every pending announcement; reads for
		// non-pending processes are skipped (local decision, no step).
		for p.idx < p.u.n && p.annSeq[p.idx] <= p.oldApplied[p.idx] {
			p.idx++
		}
		if p.idx == p.u.n {
			p.idx = 0
			p.phase = wfReadOldResp
			p.ownSteps-- // the skip itself consumes no step
			return p.Step(mem)
		}
		p.annOp[p.idx] = mem.Read(p.u.announceOpReg(p.idx))
		p.idx++
		if p.idx == p.u.n {
			p.idx = 0
			p.phase = wfReadOldResp
		}
		return false

	case wfReadOldResp:
		// Copy responses of processes whose op is NOT being applied in
		// this batch; applied ones get fresh responses.
		for p.idx < p.u.n && p.annSeq[p.idx] > p.oldApplied[p.idx] {
			p.idx++
		}
		if p.idx == p.u.n {
			p.buildBatch()
			p.idx = 0
			p.phase = wfWriteState
			p.ownSteps-- // the skip itself consumes no step
			return p.Step(mem)
		}
		p.newResp[p.idx] = mem.Read(p.u.respReg(refSlot(p.cur), p.idx))
		p.idx++
		if p.idx == p.u.n {
			p.buildBatch()
			p.idx = 0
			p.phase = wfWriteState
		}
		return false

	case wfWriteState:
		if p.slot < 0 {
			p.slot = p.u.allocate(p.pid, p.u.heldByAny)
			if p.slot < 0 {
				p.phase = wfStuck
				return false
			}
		}
		mem.Write(p.u.stateReg(p.slot), p.buildState)
		p.phase = wfWriteApplied
		return false

	case wfWriteApplied:
		mem.Write(p.u.appliedReg(p.slot, p.idx), p.newApplied[p.idx])
		p.idx++
		if p.idx == p.u.n {
			p.idx = 0
			p.phase = wfWriteResp
		}
		return false

	case wfWriteResp:
		mem.Write(p.u.respReg(p.slot, p.idx), p.newResp[p.idx])
		p.idx++
		if p.idx == p.u.n {
			p.idx = 0
			p.phase = wfCAS
		}
		return false

	case wfCAS:
		newRef := p.u.ref(p.slot)
		if mem.CAS(p.u.rootReg(), p.cur, newRef) {
			p.u.onInstall(p.cur, newRef, p.buildState, p.batch)
			p.slot = -1
		}
		// Success or failure, re-read the root: on failure someone
		// else installed (possibly including our op); on success our
		// own node carries our response.
		p.phase = wfReadRoot
		return false

	case wfStuck:
		mem.Read(p.u.rootReg())
		return false

	default:
		p.phase = wfReadRoot
		mem.Read(p.u.rootReg())
		return false
	}
}

// buildBatch computes the new node contents locally (no steps):
// applying, in process-id order, every announced-but-unapplied
// operation to the snapshot state.
func (p *WFUniversalProc) buildBatch() {
	p.batch = p.batch[:0]
	state := p.buildState
	for q := 0; q < p.u.n; q++ {
		if p.annSeq[q] > p.oldApplied[q] {
			newState, resp := p.u.obj.Apply(state, p.annOp[q])
			state = newState
			p.newApplied[q] = p.annSeq[q]
			p.newResp[q] = resp
			p.batch = append(p.batch, appliedOp{q: q, seq: p.annSeq[q], op: p.annOp[q], resp: resp})
		} else {
			p.newApplied[q] = p.oldApplied[q]
			// newResp[q] was copied in wfReadOldResp.
		}
	}
	p.buildState = state
}
