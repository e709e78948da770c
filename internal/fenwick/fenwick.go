// Package fenwick implements Fenwick (binary indexed) trees specialized for
// the configuration-level USD simulator.
//
// Two variants are provided:
//
//   - Tree: a classic int64 Fenwick tree with O(log n) point updates, prefix
//     sums, and a top-down descent that samples an index with probability
//     proportional to its value.
//   - Dual: a Fenwick tree that simultaneously maintains prefix sums of the
//     values xᵢ and of their squares xᵢ². Its weighted descent samples an
//     index with probability proportional to wᵢ = D·xᵢ − xᵢ², which is
//     exactly the probability that a decided responder of opinion i meets a
//     decided initiator of a different opinion when D = Σxⱼ agents are
//     decided (paper Observation 6.2).
//
// Both descents are exact (no rejection); the caller supplies a uniform
// random threshold in [0, Total).
//
// Dual's square sums are u128.U128: with populations up to conf.MaxN = 10¹¹
// both Σxᵢ² and the weighted total D·Σxᵢ − Σxᵢ² reach n² ≈ 10²² ≈ 2⁷⁴, past
// int64. The value sums Σxᵢ stay int64 — they are bounded by n. All u128
// arithmetic in the tree is exact: node sums are bounded by n² ≪ 2¹²⁸ and
// every subtraction removes a quantity its minuend provably contains.
package fenwick

import (
	"math/bits"

	"repro/internal/u128"
)

// Tree is a Fenwick tree over n int64 values, all initially zero.
// The zero value is not usable; construct with New or FromSlice.
type Tree struct {
	n    int
	bit  []int64 // 1-based internal array
	vals []int64 // current values, for O(1) Get
	log  uint    // highest power of two <= n
}

// New returns a tree of n zero values. n must be positive.
func New(n int) *Tree {
	if n <= 0 {
		panic("fenwick: New called with n <= 0")
	}
	return &Tree{
		n:    n,
		bit:  make([]int64, n+1),
		vals: make([]int64, n),
		log:  highBit(n),
	}
}

// FromSlice returns a tree initialized with a copy of xs in O(n).
func FromSlice(xs []int64) *Tree {
	t := New(len(xs))
	copy(t.vals, xs)
	for i, v := range xs {
		t.bit[i+1] += v
		if parent := i + 1 + ((i + 1) & -(i + 1)); parent <= t.n {
			t.bit[parent] += t.bit[i+1]
		}
	}
	return t
}

func highBit(n int) uint {
	var l uint
	for 1<<(l+1) <= n {
		l++
	}
	return l
}

// Len returns the number of slots.
func (t *Tree) Len() int { return t.n }

// Get returns the value at index i.
func (t *Tree) Get(i int) int64 { return t.vals[i] }

// Add adds delta to the value at index i.
func (t *Tree) Add(i int, delta int64) {
	t.vals[i] += delta
	for j := i + 1; j <= t.n; j += j & -j {
		t.bit[j] += delta
	}
}

// Prefix returns the sum of values at indices [0, i]. Prefix(-1) is 0.
func (t *Tree) Prefix(i int) int64 {
	var s int64
	for j := i + 1; j > 0; j -= j & -j {
		s += t.bit[j]
	}
	return s
}

// Total returns the sum of all values.
func (t *Tree) Total() int64 { return t.Prefix(t.n - 1) }

// Find returns the smallest index i such that Prefix(i) > r, assuming all
// values are non-negative. It requires 0 <= r < Total(); sampling r uniformly
// from [0, Total) selects index i with probability vals[i]/Total.
func (t *Tree) Find(r int64) int {
	if r < 0 {
		panic("fenwick: Find called with negative threshold")
	}
	pos := 0 // 1-based position of the last block kept to the left
	for step := 1 << t.log; step > 0; step >>= 1 {
		next := pos + step
		if next <= t.n && t.bit[next] <= r {
			pos = next
			r -= t.bit[next]
		}
	}
	if pos >= t.n {
		panic("fenwick: Find threshold >= Total")
	}
	return pos // pos is 0-based index of the answer
}

// SetAll replaces every value with xs in O(n), the bulk counterpart of n
// point Adds (see Dual.SetAll). xs must have exactly Len() values.
func (t *Tree) SetAll(xs []int64) {
	if len(xs) != t.n {
		panic("fenwick: Tree.SetAll called with wrong length")
	}
	copy(t.vals, xs)
	for i := range t.bit {
		t.bit[i] = 0
	}
	for i, v := range xs {
		t.bit[i+1] += v
		if parent := i + 1 + ((i + 1) & -(i + 1)); parent <= t.n {
			t.bit[parent] += t.bit[i+1]
		}
	}
}

// Dual maintains values xᵢ >= 0 together with prefix sums of xᵢ and xᵢ².
// The zero value is not usable; construct with NewDual or DualFromSlice.
//
// A Dual can optionally carry per-index stubborn floors bᵢ (SetStubborn),
// for the stubborn-agent USD variant: alongside Σxᵢ and Σxᵢ² it then also
// maintains Σbᵢ (static) and Σbᵢxᵢ (updated with every Add/SetAll), which is
// exactly what the variant's weighted descent over
// wᵢ = (xᵢ−bᵢ)·(D−xᵢ) needs (see FindWeightedStubborn).
type Dual struct {
	n    int
	sx   []int64     // Fenwick over xᵢ (bounded by n, int64 suffices)
	sx2  []u128.U128 // Fenwick over xᵢ² (reaches n² ≈ 2⁷⁴ at MaxN)
	vals []int64
	log  uint

	// Stubborn floors, nil unless SetStubborn installed them.
	sb    []int64     // Fenwick over bᵢ (static after SetStubborn)
	sbx   []u128.U128 // Fenwick over bᵢ·xᵢ (reaches n² at MaxN)
	bvals []int64     // current floors, for O(1) access
	bsum  int64       // Σbᵢ
}

// NewDual returns a dual tree of n zero values. n must be positive.
func NewDual(n int) *Dual {
	if n <= 0 {
		panic("fenwick: NewDual called with n <= 0")
	}
	return &Dual{
		n:    n,
		sx:   make([]int64, n+1),
		sx2:  make([]u128.U128, n+1),
		vals: make([]int64, n),
		log:  highBit(n),
	}
}

// DualFromSlice returns a dual tree initialized with a copy of xs in O(n).
// All values must be non-negative.
func DualFromSlice(xs []int64) *Dual {
	d := NewDual(len(xs))
	copy(d.vals, xs)
	for i, v := range xs {
		if v < 0 {
			panic("fenwick: DualFromSlice called with negative value")
		}
		d.sx[i+1] += v
		d.sx2[i+1] = d.sx2[i+1].Add(u128.Mul64(uint64(v), uint64(v)))
		if parent := i + 1 + ((i + 1) & -(i + 1)); parent <= d.n {
			d.sx[parent] += d.sx[i+1]
			d.sx2[parent] = d.sx2[parent].Add(d.sx2[i+1])
		}
	}
	return d
}

// Len returns the number of slots.
func (d *Dual) Len() int { return d.n }

// Get returns the value at index i.
func (d *Dual) Get(i int) int64 { return d.vals[i] }

// Add adds delta to the value at index i, keeping both component trees in
// sync. The resulting value must remain non-negative.
func (d *Dual) Add(i int, delta int64) {
	old := d.vals[i]
	nv := old + delta
	if nv < 0 {
		panic("fenwick: Dual.Add would make value negative")
	}
	d.vals[i] = nv
	// The square delta nv² − old² = delta·(nv+old) factors into a 64×64
	// product (|delta| <= n and nv+old <= 2n both fit uint64 for any
	// admissible population), applied by sign. The subtraction is exact:
	// every node covering index i holds at least old² >= |nv²−old²| when
	// delta is negative.
	if delta >= 0 {
		d2 := u128.Mul64(uint64(delta), uint64(nv+old))
		for j := i + 1; j <= d.n; j += j & -j {
			d.sx[j] += delta
			d.sx2[j] = d.sx2[j].Add(d2)
		}
	} else {
		d2 := u128.Mul64(uint64(-delta), uint64(nv+old))
		for j := i + 1; j <= d.n; j += j & -j {
			d.sx[j] += delta
			d.sx2[j] = d.sx2[j].Sub(d2)
		}
	}
	if d.bvals != nil {
		// Δ(bᵢ·xᵢ) = bᵢ·delta: one more 64×64 product per touched node,
		// exact for |delta| <= n and bᵢ <= n. Subtractions are exact: nodes
		// covering i hold at least bᵢ·old >= bᵢ·|delta| when delta < 0
		// (old >= -delta, or nv would be negative).
		if b := d.bvals[i]; b != 0 {
			if delta >= 0 {
				db := u128.Mul64(uint64(b), uint64(delta))
				for j := i + 1; j <= d.n; j += j & -j {
					d.sbx[j] = d.sbx[j].Add(db)
				}
			} else {
				db := u128.Mul64(uint64(b), uint64(-delta))
				for j := i + 1; j <= d.n; j += j & -j {
					d.sbx[j] = d.sbx[j].Sub(db)
				}
			}
		}
	}
}

// Sum returns Σ xᵢ over all indices.
func (d *Dual) Sum() int64 { return d.prefixX(d.n) }

// SumSquares returns Σ xᵢ² over all indices.
func (d *Dual) SumSquares() u128.U128 { return d.prefixX2(d.n) }

func (d *Dual) prefixX(j int) int64 { // 1-based exclusive bound
	var s int64
	for ; j > 0; j -= j & -j {
		s += d.sx[j]
	}
	return s
}

func (d *Dual) prefixX2(j int) u128.U128 {
	var s u128.U128
	for ; j > 0; j -= j & -j {
		s = s.Add(d.sx2[j])
	}
	return s
}

// TotalWeighted returns Σᵢ (D·xᵢ − xᵢ²) = D·Σxᵢ − Σxᵢ². With D = Σxᵢ this is
// the number of ordered pairs of decided agents holding different opinions.
// The subtraction is exact: Σxᵢ² <= D·Σxᵢ whenever every xᵢ <= D.
func (d *Dual) TotalWeighted(dTotal int64) u128.U128 {
	return u128.Mul64(uint64(dTotal), uint64(d.Sum())).Sub(d.SumSquares())
}

// FindWeighted returns the smallest index i such that the prefix sum of
// weights wⱼ = D·xⱼ − xⱼ² over j <= i exceeds r. It requires every xⱼ <= D
// (so all weights are non-negative) and 0 <= r < TotalWeighted(D). Sampling
// r uniformly selects index i with probability wᵢ/Σw, the exact distribution
// of the responder in a "decided meets differently-decided" interaction.
func (d *Dual) FindWeighted(dTotal int64, r u128.U128) int {
	pos := 0
	for step := 1 << d.log; step > 0; step >>= 1 {
		next := pos + step
		if next <= d.n {
			w := u128.Mul64(uint64(dTotal), uint64(d.sx[next])).Sub(d.sx2[next])
			pos, r = descend(pos, step, r, w)
		}
	}
	if pos >= d.n {
		panic("fenwick: FindWeighted threshold >= TotalWeighted")
	}
	return pos
}

// descend is one step of a weighted Fenwick descent: when the node weight w
// is at most the remaining threshold r, the descent moves past the node
// (pos+step) and r drops by w; otherwise both stay. It is branch-free —
// the direction is a coin flip a branch predictor cannot learn — with the
// comparison read off the borrow of r − w.
func descend(pos, step int, r, w u128.U128) (int, u128.U128) {
	lo, b := bits.Sub64(r.Lo, w.Lo, 0)
	hi, b := bits.Sub64(r.Hi, w.Hi, b)
	keep := b - 1 // all ones when w <= r
	r.Lo ^= (r.Lo ^ lo) & keep
	r.Hi ^= (r.Hi ^ hi) & keep
	return pos + step&int(keep), r
}

// FindSupport returns the smallest index i such that the prefix sum of the
// values xⱼ over j <= i exceeds r. It requires 0 <= r < Sum(); sampling r
// uniformly selects index i with probability xᵢ/Σx — the law of the opinion
// adopted by an undecided responder.
func (d *Dual) FindSupport(r int64) int {
	if r < 0 {
		panic("fenwick: FindSupport called with negative threshold")
	}
	pos := 0
	for step := 1 << d.log; step > 0; step >>= 1 {
		next := pos + step
		if next <= d.n {
			// Branch-free step: the direction is a coin flip a branch
			// predictor cannot learn.
			w := d.sx[next]
			take := int64(0)
			if w <= r {
				take = -1
			}
			pos += step & int(take)
			r -= w & take
		}
	}
	if pos >= d.n {
		panic("fenwick: FindSupport threshold >= Sum")
	}
	return pos
}

// SetAll replaces every value with xs in O(n), rebuilding both component
// trees in one pass. It is the bulk counterpart of n point Adds: the batched
// simulation kernel applies a whole window of per-opinion deltas with a
// single rebuild instead of one O(log n) update per event. xs must have
// exactly Len() non-negative values.
func (d *Dual) SetAll(xs []int64) {
	if len(xs) != d.n {
		panic("fenwick: SetAll called with wrong length")
	}
	// Validate before mutating so a contract panic leaves the tree intact.
	for _, v := range xs {
		if v < 0 {
			panic("fenwick: SetAll called with negative value")
		}
	}
	copy(d.vals, xs)
	for i := range d.sx {
		d.sx[i] = 0
		d.sx2[i] = u128.U128{}
	}
	for i, v := range xs {
		d.sx[i+1] += v
		d.sx2[i+1] = d.sx2[i+1].Add(u128.Mul64(uint64(v), uint64(v)))
		if parent := i + 1 + ((i + 1) & -(i + 1)); parent <= d.n {
			d.sx[parent] += d.sx[i+1]
			d.sx2[parent] = d.sx2[parent].Add(d.sx2[i+1])
		}
	}
	if d.bvals != nil {
		d.rebuildStubbornX()
	}
}

// SetStubborn installs per-index stubborn floors bᵢ (a copy of b) and builds
// the Σbᵢ and Σbᵢxᵢ component trees; passing nil clears the floors and drops
// the extra maintenance from Add and SetAll. Floors must be non-negative;
// the stubborn descent's weight contract additionally needs xᵢ >= bᵢ, which
// the caller (the stubborn dynamics, whose transition law never removes a
// stubborn agent) maintains. Buffers are reused across calls when the length
// matches, so arena-style Reset cycles stay allocation-free.
func (d *Dual) SetStubborn(b []int64) {
	if b == nil {
		d.sb, d.sbx, d.bvals, d.bsum = nil, nil, nil, 0
		return
	}
	if len(b) != d.n {
		panic("fenwick: SetStubborn called with wrong length")
	}
	for _, v := range b {
		if v < 0 {
			panic("fenwick: SetStubborn called with negative floor")
		}
	}
	if cap(d.bvals) < d.n {
		d.bvals = make([]int64, d.n)
		d.sb = make([]int64, d.n+1)
		d.sbx = make([]u128.U128, d.n+1)
	}
	d.bvals = d.bvals[:d.n]
	d.sb = d.sb[:d.n+1]
	d.sbx = d.sbx[:d.n+1]
	copy(d.bvals, b)
	d.bsum = 0
	for i := range d.sb {
		d.sb[i] = 0
	}
	for i, v := range b {
		d.bsum += v
		d.sb[i+1] += v
		if parent := i + 1 + ((i + 1) & -(i + 1)); parent <= d.n {
			d.sb[parent] += d.sb[i+1]
		}
	}
	d.rebuildStubbornX()
}

// rebuildStubbornX rebuilds the Σbᵢxᵢ tree from the current values in O(n).
func (d *Dual) rebuildStubbornX() {
	for i := range d.sbx {
		d.sbx[i] = u128.U128{}
	}
	for i, v := range d.vals {
		d.sbx[i+1] = d.sbx[i+1].Add(u128.Mul64(uint64(d.bvals[i]), uint64(v)))
		if parent := i + 1 + ((i + 1) & -(i + 1)); parent <= d.n {
			d.sbx[parent] = d.sbx[parent].Add(d.sbx[i+1])
		}
	}
}

// Stubborn returns the stubborn floor at index i (0 when no floors are
// installed).
func (d *Dual) Stubborn(i int) int64 {
	if d.bvals == nil {
		return 0
	}
	return d.bvals[i]
}

// StubbornSum returns Σbᵢ over all indices (0 when no floors are installed).
func (d *Dual) StubbornSum() int64 { return d.bsum }

// HasStubborn reports whether stubborn floors are installed.
func (d *Dual) HasStubborn() bool { return d.bvals != nil }

// TotalWeightedStubborn returns Σᵢ (xᵢ−bᵢ)·(D−xᵢ) =
// D·(Σxᵢ−Σbᵢ) − Σxᵢ² + Σbᵢxᵢ, the stubborn variant's count of ordered
// "decided responder may undecide" pairs. It requires installed floors with
// every bᵢ <= xᵢ <= D; the subtraction is then exact because the total is a
// sum of non-negative terms.
func (d *Dual) TotalWeightedStubborn(dTotal int64) u128.U128 {
	pos := u128.Mul64(uint64(dTotal), uint64(d.Sum()-d.bsum)).Add(d.prefixBX(d.n))
	return pos.Sub(d.SumSquares())
}

func (d *Dual) prefixBX(j int) u128.U128 {
	var s u128.U128
	for ; j > 0; j -= j & -j {
		s = s.Add(d.sbx[j])
	}
	return s
}

// FindWeightedStubborn returns the smallest index i such that the prefix sum
// of weights wⱼ = (xⱼ−bⱼ)·(D−xⱼ) over j <= i exceeds r. It requires
// installed floors, bⱼ <= xⱼ <= D for every j (all weights non-negative),
// and 0 <= r < TotalWeightedStubborn(D). Each node weight is evaluated as
// (D·sx + sbx) − (sx2 + D·sb); both sides are exact u128 sums and the
// subtraction is exact because every node's weight is a sum of non-negative
// per-index weights.
func (d *Dual) FindWeightedStubborn(dTotal int64, r u128.U128) int {
	pos := 0
	for step := 1 << d.log; step > 0; step >>= 1 {
		next := pos + step
		if next <= d.n {
			pos128 := u128.Mul64(uint64(dTotal), uint64(d.sx[next])).Add(d.sbx[next])
			neg128 := d.sx2[next].Add(u128.Mul64(uint64(dTotal), uint64(d.sb[next])))
			pos, r = descend(pos, step, r, pos128.Sub(neg128))
		}
	}
	if pos >= d.n {
		panic("fenwick: FindWeightedStubborn threshold >= TotalWeightedStubborn")
	}
	return pos
}

// Values appends a copy of the current values to dst and returns it.
func (d *Dual) Values(dst []int64) []int64 {
	return append(dst, d.vals...)
}

// View returns the tree's live value slice without copying. The slice is
// the tree's own backing store: it stays valid (and visible through later
// reads) across Add and SetAll, and callers must treat it as read-only —
// writing through it would desynchronize the prefix trees. The batched
// simulation kernels read the pre-window supports through it once per
// window instead of copying k values.
func (d *Dual) View() []int64 {
	return d.vals
}
