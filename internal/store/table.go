package store

import (
	"hash/maphash"

	"eden/internal/edenid"
)

// idTable maps an object's id to a V: the directory's record entries, or
// its intents. The entries lie densely in one slice, in no order, and are
// found through an open-addressed index of their positions — linear
// probing over a power-of-two table kept at most three quarters full. A
// record costs its 56-byte entry, a 4-byte slot over the load factor and
// the slice's spare capacity: 65–77 B from 10³ to 10⁶ records, where a Go
// map of the same entries cost 104–131 B (TestFileDirectoryFootprint).
//
// An id is structured — creator, stamp, sequence number — and peers ship
// records in, so a hash with no secret would let a node's keys cluster
// in the index; ids are hashed with maphash under a seed each table draws
// when it first allocates its index. The zero idTable is empty and ready
// to use. Its methods take no lock: the directory's dirMu guards it.
type idTable[V any] struct {
	seed maphash.Seed
	ents []idEntry[V]
	// idx is the index: 0 is an empty slot. Any other slot holds, in the
	// bits its length masks, the position of an entry in ents plus one,
	// and above them the same bits of the upper half of the id's hash —
	// so a probe compares ids only where those agree, and a miss seldom
	// reads ents at all.
	idx []uint32
}

// idEntry is one id and its value.
type idEntry[V any] struct {
	id edenid.ID
	v  V
}

// hash returns the slot a probe for id starts at and the tag of its slot:
// the bits of the hash that mask leaves out.
func (t *idTable[V]) hash(id edenid.ID, mask int) (home int, tag uint32) {
	h := maphash.Bytes(t.seed, id[:])
	return int(h) & mask, uint32(h>>32) &^ uint32(mask)
}

// find returns the slot of the index that holds id, or the empty slot
// where a probe for it ends, and the tag of id's slot. The index must not
// be empty.
func (t *idTable[V]) find(id edenid.ID) (slot int, tag uint32, ok bool) {
	mask := len(t.idx) - 1
	i, tag := t.hash(id, mask)
	for ; ; i = (i + 1) & mask {
		p := t.idx[i]
		if p == 0 {
			return i, tag, false
		}
		if p&^uint32(mask) == tag && t.ents[t.pos(p)].id == id {
			return i, tag, true
		}
	}
}

// pos is the position in ents of the entry that slot value p names.
func (t *idTable[V]) pos(p uint32) int { return int(p&uint32(len(t.idx)-1)) - 1 }

// get returns id's value.
func (t *idTable[V]) get(id edenid.ID) (V, bool) {
	if v := t.ref(id); v != nil {
		return *v, true
	}
	var zero V
	return zero, false
}

// ref returns where id's value lies, or nil. The pointer is good until
// the next put or delete.
func (t *idTable[V]) ref(id edenid.ID) *V {
	if len(t.ents) == 0 {
		return nil
	}
	i, _, ok := t.find(id)
	if !ok {
		return nil
	}
	return &t.ents[t.pos(t.idx[i])].v
}

// put sets id's value to v, returning the value it replaces.
func (t *idTable[V]) put(id edenid.ID, v V) (old V, had bool) {
	if e := t.ref(id); e != nil {
		old, *e = *e, v
		return old, true
	}
	if 4*(len(t.ents)+1) > 3*len(t.idx) {
		t.grow()
	}
	i, tag, _ := t.find(id)
	t.ents = append(t.ents, idEntry[V]{id: id, v: v})
	t.idx[i] = tag | uint32(len(t.ents))
	return old, false
}

// grow doubles the index and places every entry in it again.
func (t *idTable[V]) grow() {
	if t.idx == nil {
		t.seed = maphash.MakeSeed()
	}
	t.idx = make([]uint32, max(2*len(t.idx), 8))
	mask := len(t.idx) - 1
	for p := range t.ents {
		i, tag := t.hash(t.ents[p].id, mask)
		for t.idx[i] != 0 {
			i = (i + 1) & mask
		}
		t.idx[i] = tag | uint32(p+1)
	}
}

// delete removes id, returning its value. The index closes the gap by
// shifting back each later slot of the probe run that may move into it,
// so no probe ever needs a tombstone; the last entry moves into the
// freed position.
func (t *idTable[V]) delete(id edenid.ID) (old V, had bool) {
	if len(t.ents) == 0 {
		return old, false
	}
	i, _, ok := t.find(id)
	if !ok {
		return old, false
	}
	p := t.pos(t.idx[i])
	old = t.ents[p].v
	mask := len(t.idx) - 1
	for j := (i + 1) & mask; t.idx[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the gap at i unless its home lies
		// after i in the run.
		if h, _ := t.hash(t.ents[t.pos(t.idx[j])].id, mask); (j-h)&mask >= (j-i)&mask {
			t.idx[i] = t.idx[j]
			i = j
		}
	}
	t.idx[i] = 0
	last := len(t.ents) - 1
	if p != last {
		moved := t.ents[last]
		s, tag, _ := t.find(moved.id)
		t.idx[s] = tag | uint32(p+1)
		t.ents[p] = moved
	}
	t.ents[last] = idEntry[V]{}
	t.ents = t.ents[:last]
	return old, true
}
