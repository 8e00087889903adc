package model

// Index maps configuration fingerprints to dense ids: an open-addressed,
// linearly probed table of (fingerprint, id) slots that holds no pointers,
// takes no locks and allocates nothing per key — only when it doubles,
// which it does at half load. A fingerprint match is a candidate, not an
// answer: Find settles it with the caller's same, so a collision costs a
// comparison, never a wrong id. The ids index whatever column the owner
// keeps beside it — the explorer's node table, an Interner's keys, a
// valency cache's memo.
//
// An Index has one writer at a time, whoever admits entries to its
// owner's column; once the table stops growing, concurrent Finds are safe.
// Owners that write concurrently hold their own lock around it.
type Index struct {
	slots []indexSlot
	n     int
}

// indexSlot is one entry; h == 0 marks it empty, which no fingerprint is
// (Config.Hash reserves 0).
type indexSlot struct {
	h  uint64
	id int32
}

// Find returns the id of an entry inserted under fingerprint h for which
// same reports true.
func (x *Index) Find(h uint64, same func(id int32) bool) (int32, bool) {
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

// Insert records id under fingerprint h (non-zero). It does not look for
// an existing entry: callers insert only after Find missed.
func (x *Index) Insert(h uint64, id int32) {
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

// Reset empties the index and keeps its slots, so an owner that refills it
// — job after job — does not allocate the table again.
func (x *Index) Reset() {
	clear(x.slots)
	x.n = 0
}

// place puts s in the first empty slot of its probe sequence.
func (x *Index) place(s indexSlot) {
	mask := uint64(len(x.slots) - 1)
	i := s.h & mask
	for x.slots[i].h != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}
