package grb

import "math/bits"

// bitset is a word-packed presence bitmap over [0, n): the bitmap half of the
// dual sparse/bitmap frontier representation. Traversal frontiers flip from
// sorted-coordinate to bitmap form once their fill ratio crosses
// denseThreshold, giving the pull (dot-product) kernel O(1) membership
// tests; flipping back is a linear scan over the set bits.
// Bits at indices >= n must stay zero so word-level iteration never yields an
// out-of-range index.
type bitset []uint64

// newBitset returns an all-clear bitset covering [0, n).
func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i Index)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) get(i Index) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) unset(i Index)    { b[i>>6] &^= 1 << (uint(i) & 63) }

// iterate calls fn for every set bit in ascending order; fn returning false
// stops the iteration.
func (b bitset) iterate(fn func(i Index) bool) {
	for wi, w := range b {
		base := Index(wi << 6)
		for w != 0 {
			if !fn(base + Index(bits.TrailingZeros64(w))) {
				return
			}
			w &= w - 1
		}
	}
}

// appendSet appends every set bit to dst in ascending order.
func (b bitset) appendSet(dst []Index) []Index {
	for wi, w := range b {
		base := Index(wi << 6)
		for w != 0 {
			dst = append(dst, base+Index(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// Bitmap is the exported word-packed bitmap behind the columnar property
// store's presence tracking and the vectorized selection kernels. Unlike the
// frontier bitset above it is indexed by plain ints (node IDs) and every
// accessor is bounds-tolerant: columns grow lazily, so a probe past the end
// of the allocated words simply reports "absent" instead of forcing eager
// growth to the matrix dimension.
type Bitmap []uint64

// Grown returns a bitmap covering at least [0, n), reusing b's words.
func (b Bitmap) Grown(n int) Bitmap {
	words := (n + 63) / 64
	if words <= len(b) {
		return b
	}
	nb := make(Bitmap, words)
	copy(nb, b)
	return nb
}

// Set marks bit i; the bitmap must already cover i (see Grown).
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Unset clears bit i if the bitmap covers it.
func (b Bitmap) Unset(i int) {
	if w := i >> 6; w < len(b) {
		b[w] &^= 1 << (uint(i) & 63)
	}
}

// Get reports bit i, treating indices past the allocated words as clear.
func (b Bitmap) Get(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

// Clone returns an independent copy.
func (b Bitmap) Clone() Bitmap {
	out := make(Bitmap, len(b))
	copy(out, b)
	return out
}

// Iterate calls fn for every set bit in ascending order; fn returning false
// stops the iteration.
func (b Bitmap) Iterate(fn func(i int) bool) {
	for wi, w := range b {
		base := wi << 6
		for w != 0 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}
