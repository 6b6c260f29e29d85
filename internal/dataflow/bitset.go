// Package dataflow implements the bit-vector dataflow analyses the
// register allocator and both spill placement algorithms rely on:
// a generic iterative solver, liveness, and web construction.
package dataflow

import "math/bits"

// BitSet is a fixed-capacity bit vector.
type BitSet struct {
	words []uint64
	n     int
}

// NewBitSet returns an empty set over the universe [0, n).
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the universe size.
func (s *BitSet) Len() int { return s.n }

// Set adds i to the set.
func (s *BitSet) Set(i int) { s.words[i/64] |= 1 << (uint(i) % 64) }

// Clear removes i from the set.
func (s *BitSet) Clear(i int) { s.words[i/64] &^= 1 << (uint(i) % 64) }

// Has reports whether i is in the set.
func (s *BitSet) Has(i int) bool { return s.words[i/64]&(1<<(uint(i)%64)) != 0 }

// Word returns the i'th 64-bit word of the set: element 64*i+k is
// bit k of word i. It lets callers combine sets a word at a time.
func (s *BitSet) Word(i int) uint64 { return s.words[i] }

// Count returns the number of elements.
func (s *BitSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CopyFrom overwrites s with t.
func (s *BitSet) CopyFrom(t *BitSet) { copy(s.words, t.words) }

// Union adds every element of t; reports whether s changed.
func (s *BitSet) Union(t *BitSet) bool {
	changed := false
	for i, w := range t.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Intersect keeps only elements also in t; reports whether s changed.
func (s *BitSet) Intersect(t *BitSet) bool {
	changed := false
	for i, w := range t.words {
		nw := s.words[i] & w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Subtract removes every element of t.
func (s *BitSet) Subtract(t *BitSet) {
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Equal reports set equality.
func (s *BitSet) Equal(t *BitSet) bool {
	for i, w := range t.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// Fill adds every element of the universe.
func (s *BitSet) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	// Mask tail bits beyond n.
	if rem := s.n % 64; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Reset removes every element.
func (s *BitSet) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ForEach calls fn for every element in ascending order.
func (s *BitSet) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// Clone returns a copy.
func (s *BitSet) Clone() *BitSet {
	c := NewBitSet(s.n)
	copy(c.words, s.words)
	return c
}
