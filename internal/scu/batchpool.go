package scu

// Shared node-pool infrastructure for the replica-batched forms of the
// pointer-based workloads (Stack, Queue, RCU). The scalar forms model
// precise garbage collection with an O(n) heldByAny scan over every
// process's local references at each allocation; the batched forms
// replace that scan with a per-slot reference count maintained
// incrementally, so allocation is O(poolSize) with no per-process
// walk and the hot metadata stays in one contiguous array per replica.
//
// Equivalence argument (relied on by the byte-identity tests): the
// scalar free condition is !live[slot] && !heldByAny(slot), where
// heldByAny is true iff some process's local variables reference the
// slot. The batched forms route every assignment of a ref-holding
// local (top, next, head, tail, ver) through setRef, which decrements
// the old referent's count and increments the new one, and count the
// in-flight allocation itself (the scalar p.slot field) with an
// explicit inc at allocation and dec at release. Counts are therefore
// balanced, and held > 0 exactly when some local references the slot
// — a process holding the same slot through two locals counts it
// twice, which is harmless because the scalar test is boolean.
// allocBatch scans the pool in the same lo..lo+poolSize-1 order as
// the scalar allocate and bumps the same tag, so under an identical
// schedule it picks the identical slot and mints the identical
// tagged ref.

// nodeMeta is the Go-side (non-simulated) per-slot bookkeeping: the
// ABA tag, the local-reference count, and the reachable-from-the-
// structure liveness bit. 16 bytes, so a replica's pool metadata packs
// four slots per cache line.
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

// batchRef packs a slot and its current tag into a register value,
// exactly like the scalar ref: slot+1 keeps 0 as the null reference.
func batchRef(meta []nodeMeta, slot int) int64 {
	return meta[slot].tag<<slotBits | int64(slot+1)
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
// when the pool is exhausted, applying the scalar precise-GC rule
// (!live && unreferenced) in the scalar scan order and bumping the
// slot's tag on success. The caller accounts the returned slot as held
// and records the pool-exhaustion error.
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
