package tensor

// Arena is a free-list recycler for the scratch matrices of a decode
// step. Get returns a zeroed matrix exactly like New; Put hands the
// backing slice back for reuse by a later Get of the same element
// count. In steady state a decode loop cycles through the same handful
// of shapes (hidden, kv, ffn, vocab widths), so after the first token
// every Get is served from the free list and the loop performs no heap
// allocation.
//
// Ownership rules (see DESIGN §3h): a matrix obtained from Get is owned
// by the caller until it is Put back, at which point the arena may hand
// the same backing slice to the next Get — so a caller must never
// retain a view of a matrix after Putting it, and must never Put the
// same matrix twice. An Arena is single-goroutine (one per engine, used
// only under the engine's step serialization); it is not safe for
// concurrent use.
//
// Putting a matrix that did not come from Get is allowed (the slice
// just joins the free list), and Putting a zero Mat is a no-op, which
// keeps error paths simple.
type Arena struct {
	free map[int][][]float32
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{free: make(map[int][][]float32)}
}

// Get returns a zeroed r x c matrix, reusing a recycled backing slice
// of the same element count when one is available.
func (a *Arena) Get(r, c int) Mat {
	n := r * c
	if list := a.free[n]; len(list) > 0 {
		buf := list[len(list)-1]
		a.free[n] = list[:len(list)-1]
		clear(buf)
		return Mat{R: r, C: c, Data: buf}
	}
	return New(r, c)
}

// Put recycles m's backing slice. m must no longer be referenced by the
// caller (including row views) once Put returns.
func (a *Arena) Put(m Mat) {
	n := len(m.Data)
	if n == 0 {
		return
	}
	a.free[n] = append(a.free[n], m.Data[:n])
}

// Idle reports how many matrices wait on the free list. An owner whose
// every Get is paired with a Put sees the same count whenever it holds
// nothing, so a count that drifts down is a leak.
func (a *Arena) Idle() int {
	n := 0
	for _, list := range a.free {
		n += len(list)
	}
	return n
}
