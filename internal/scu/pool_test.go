package scu

import (
	"errors"
	"testing"
)

// TestPoolConstructorsBoundSlots pins every pool constructor, scalar
// and batched, to the reference format: a slab of exactly MaxSlots
// slots (dummy nodes and sentinels included) is accepted, and one
// slot more is rejected with ErrBadParams instead of silently
// aliasing references.
func TestPoolConstructorsBoundSlots(t *testing.T) {
	rows := []struct {
		name string
		// build constructs the structure whose slab holds MaxSlots+past
		// slots.
		build func(past int) error
	}{
		{"Stack", func(past int) error { _, err := NewStack(1, MaxSlots+past, 0); return err }},
		{"Queue", func(past int) error { _, err := NewQueue(1, MaxSlots-1+past, 0); return err }},
		{"RCU", func(past int) error { _, err := NewRCU(2, 1, MaxSlots+past, 0); return err }},
		{"List", func(past int) error { _, err := NewList(1, MaxSlots-2+past, 0); return err }},
		{"HashSet", func(past int) error { _, err := NewHashSet(1, 1, MaxSlots-2+past, 0); return err }},
		{"WFUniversal", func(past int) error {
			_, err := NewWFUniversal(CounterObject{}, 1, MaxSlots-1+past, 0)
			return err
		}},
		{"StackBatch", func(past int) error { _, err := NewStackBatch(1, 1, MaxSlots+past); return err }},
		{"QueueBatch", func(past int) error { _, err := NewQueueBatch(1, 1, MaxSlots-1+past); return err }},
		{"RCUBatch", func(past int) error { _, err := NewRCUBatch(1, 2, 1, MaxSlots+past); return err }},
	}
	for _, row := range rows {
		if err := row.build(0); err != nil {
			t.Errorf("%s with %d slots: %v", row.name, MaxSlots, err)
		}
		if err := row.build(1); !errors.Is(err, ErrBadParams) {
			t.Errorf("%s with %d slots: got %v, want ErrBadParams", row.name, MaxSlots+1, err)
		}
	}
}

// TestPoolSlotsBound checks the slab-size arithmetic at the bound for
// several owner counts, including products that overflow int.
func TestPoolSlotsBound(t *testing.T) {
	for _, c := range []struct {
		owners, poolSize, extra int
		ok                      bool
	}{
		{1, MaxSlots, 0, true},
		{1, MaxSlots + 1, 0, false},
		{3, 349525, 0, true},
		{3, 349525, 1, false},
		{2, (MaxSlots - 1) / 2, 1, true},
		{2, (MaxSlots-1)/2 + 1, 1, false},
		{4, 1 << 62, 0, false},
	} {
		slots, err := poolSlots(c.owners, c.poolSize, c.extra)
		if c.ok && (err != nil || slots != c.owners*c.poolSize+c.extra) {
			t.Errorf("poolSlots%v = %d, %v; want %d", c, slots, err, c.owners*c.poolSize+c.extra)
		}
		if !c.ok && !errors.Is(err, ErrBadParams) {
			t.Errorf("poolSlots%v = %d, %v; want ErrBadParams", c, slots, err)
		}
	}
}
