package explore

// nodeIndex maps configuration fingerprints to dense node ids: an
// open-addressed, linearly probed table of (fingerprint, id) slots that
// holds no pointers, takes no locks and allocates nothing per key — only
// when it doubles, which it does at half load. A fingerprint match is a
// candidate, not an answer: find settles it with the caller's same, so a
// collision costs a comparison, never a wrong id.
//
// The index has one writer, whoever admits nodes to its table (core.merge,
// RestoreAtlasBuilder, a loaded atlas's one lazy fill); once the table
// stops growing, concurrent finds are safe.
type nodeIndex struct {
	slots []indexSlot
	n     int
}

// indexSlot is one entry; h == 0 marks it empty, which no fingerprint is
// (model.Config.Hash reserves 0).
type indexSlot struct {
	h  uint64
	id int32
}

// find returns the id of a node inserted under fingerprint h for which
// same reports true.
func (x *nodeIndex) find(h uint64, same func(id int32) bool) (int32, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s.h == 0 {
			return 0, false
		}
		if s.h == h && same(s.id) {
			return s.id, true
		}
	}
}

// insert records node id under fingerprint h (non-zero). It does not look
// for an existing entry: callers insert a node only after find missed it.
func (x *nodeIndex) insert(h uint64, id int32) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]indexSlot, max(16, 2*len(old)))
		for _, s := range old {
			if s.h != 0 {
				x.place(s)
			}
		}
	}
	x.place(indexSlot{h, id})
	x.n++
}

// place puts s in the first empty slot of its probe sequence.
func (x *nodeIndex) place(s indexSlot) {
	mask := uint64(len(x.slots) - 1)
	i := s.h & mask
	for x.slots[i].h != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}
