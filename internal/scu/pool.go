package scu

import "fmt"

// The node slab of the pointer-based workloads (Stack, Queue, RCU,
// List, WFUniversal and their batched forms). This file is the one
// statement of the three decisions they share: the reference format,
// the slab-size bound, and the precise-GC allocation rule.
//
// Nodes live in a slab partitioned into per-owner pools of poolSize
// slots, owner o holding slots [o*poolSize, (o+1)*poolSize), followed
// by the structure's extra slots (a dummy node or sentinels).
// References stored in registers pack a slot and its reuse tag, so a
// reference value never repeats and the simulated CAS is immune to
// ABA. Node reclamation is modelled as garbage collection: liveness
// and tags are Go-side bookkeeping that costs no simulated steps,
// mirroring how the paper's native experiments rely on the runtime
// allocator, whose cost is not a shared-memory step.
//
// Precise GC: a slot is free only when it is neither live (reachable
// from the structure) nor held by any process's local references, so
// node reuse is race-free without hazard pointers. The scalar nodePool
// asks the structure's heldByAny walk over every process; it is the
// reference the batched forms are tested against.
//
// The batched forms replace that walk with a per-slot reference count
// maintained incrementally, so allocation is O(poolSize) with no
// per-process walk and the hot metadata stays in one contiguous array
// per replica. Equivalence argument (relied on by the byte-identity
// tests): the batched forms route every assignment of a ref-holding
// local (top, next, head, tail, ver) through setRef, which decrements
// the old referent's count and increments the new one, and count the
// in-flight allocation itself (the scalar p.slot field) with an
// explicit inc at allocation and dec at release. Counts are therefore
// balanced, and held > 0 exactly when some local references the slot
// — a process holding the same slot through two locals counts it
// twice, which is harmless because the scalar test is boolean.
// allocBatch scans the pool in the same order as nodePool.allocate
// and bumps the same tag, so under an identical schedule it picks the
// identical slot and mints the identical tagged ref.

// A reference keeps slot+1 in its low slotBits bits (0 is the null
// reference) and the slot's reuse tag above them; the List shifts the
// whole reference up by one for its mark bit. One slab therefore
// addresses at most MaxSlots slots; a larger slab would alias slots.
const (
	slotBits = 20
	MaxSlots = 1<<slotBits - 1
)

// packRef packs a slot and its reuse tag into a reference.
func packRef(tag int64, slot int) int64 { return tag<<slotBits | int64(slot+1) }

// refSlot returns the slot of a reference, -1 for the null reference.
func refSlot(ref int64) int { return int(ref&MaxSlots) - 1 }

// poolSlots returns the size of a slab of owners pools of poolSize
// slots plus extra slots, or ErrBadParams when references could not
// address it. owners and poolSize must be positive.
func poolSlots(owners, poolSize, extra int) (int, error) {
	if poolSize > (MaxSlots-extra)/owners {
		return 0, fmt.Errorf("%w: %d pools of %d slots plus %d need more than %d node slots",
			ErrBadParams, owners, poolSize, extra, MaxSlots)
	}
	return owners*poolSize + extra, nil
}

// poolExhausted is the structural error of an allocation that found
// no free slot in owner's pool; pool names the pool and its owner,
// e.g. "stack node pool of process".
func poolExhausted(pool string, owner int) error {
	return fmt.Errorf("scu: %s %d exhausted", pool, owner)
}

// nodePool is the scalar slab bookkeeping: per-slot reuse tags and
// liveness, and the first exhaustion error.
type nodePool struct {
	name     string // the pool as poolExhausted names it
	poolSize int
	live     []bool  // per-slot: node currently reachable from the structure
	tags     []int64 // per-slot reuse counter
	err      error
}

// newNodePool returns the pool of a slab of owners×poolSize+extra
// slots, or ErrBadParams past MaxSlots.
func newNodePool(name string, owners, poolSize, extra int) (nodePool, error) {
	slots, err := poolSlots(owners, poolSize, extra)
	if err != nil {
		return nodePool{}, err
	}
	return nodePool{
		name:     name,
		poolSize: poolSize,
		live:     make([]bool, slots),
		tags:     make([]int64, slots),
	}, nil
}

// ref returns the reference to slot's current incarnation.
func (p *nodePool) ref(slot int) int64 { return packRef(p.tags[slot], slot) }

// install makes slot a live node of the initial structure (a dummy
// node or a sentinel) with tag 1 and returns its reference.
func (p *nodePool) install(slot int) int64 {
	p.tags[slot] = 1
	p.live[slot] = true
	return p.ref(slot)
}

// allocate returns the first free slot of owner's pool, bumping its
// tag, or -1 when the pool is exhausted (recorded in err). held
// reports whether some process's local variables reference a slot.
func (p *nodePool) allocate(owner int, held func(slot int) bool) int {
	lo := owner * p.poolSize
	for slot := lo; slot < lo+p.poolSize; slot++ {
		if !p.live[slot] && !held(slot) {
			p.tags[slot]++
			return slot
		}
	}
	if p.err == nil {
		p.err = poolExhausted(p.name, owner)
	}
	return -1
}

// nodeMeta is the batched forms' per-slot bookkeeping: the ABA tag,
// the local-reference count, and the reachable-from-the-structure
// liveness bit. 16 bytes, so a replica's pool metadata packs four
// slots per cache line.
type nodeMeta struct {
	tag  int64
	held int32
	live bool
	_    [3]byte
}

// nodeCell is one node's simulated registers (value, next), the raw
// equivalent of the scalar valueReg/nextReg register pair.
type nodeCell struct {
	value int64
	next  int64
}

// setRef assigns *field = ref, maintaining the per-slot reference
// counts for both the old and the new referent.
func setRef(meta []nodeMeta, field *int64, ref int64) {
	if old := *field; old != 0 {
		meta[refSlot(old)].held--
	}
	if ref != 0 {
		meta[refSlot(ref)].held++
	}
	*field = ref
}

// allocBatch returns the first free slot in [lo, lo+poolSize), or -1
// when the pool is exhausted, applying the precise-GC rule of
// nodePool.allocate with the refcount standing in for heldByAny and
// bumping the slot's tag on success. The caller accounts the returned
// slot as held and records the pool-exhaustion error.
func allocBatch(meta []nodeMeta, lo, poolSize int) int32 {
	for k := 0; k < poolSize; k++ {
		slot := lo + k
		if !meta[slot].live && meta[slot].held == 0 {
			meta[slot].tag++
			return int32(slot)
		}
	}
	return -1
}
