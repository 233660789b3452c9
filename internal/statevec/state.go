// Package statevec implements the dense state-vector simulation engine
// described in Appendix A of the paper: the quantum state of an n-qubit
// system is a 2^n complex vector (Eq. 1), single-qubit gates mix
// amplitude pairs selected by the target-qubit bit (Eq. 2), and
// controlled gates mix the pairs whose control bit is 1 (Eq. 3, with
// the non-contiguous memory access pattern Appendix A walks through for
// the 3-qubit CX example).
//
// The engine has a serial path (the Qiskit-Aer-on-CPU stand-in) and a
// data-parallel path that shards the amplitude-pair index space over
// worker goroutines (the CUDA-Q-on-A100 stand-in): the same mechanism —
// thousands of independent amplitude updates per gate — that the paper
// credits for the GPU's two-orders-of-magnitude advantage.
package statevec

import (
	"fmt"
	"math"
	"math/cmplx"

	"qgear/internal/qmath"
)

// MaxQubits bounds allocations: 2^28 amplitudes = 4 GiB of complex128,
// the most a single simulated device is allowed to hold (the paper's
// A100-40GB tops out at 32 qubits of fp32 pairs; our in-memory budget
// tops out lower, and the cluster model extrapolates beyond).
const MaxQubits = 28

// State is a dense 2^n-amplitude state vector.
//
// The amplitude array may be held in a *permuted* qubit layout: perm
// (when non-nil) maps each logical qubit to the physical bit position
// its amplitude index actually uses. The tiled executor exploits this
// to relabel qubits without moving data — a logical SWAP is a table
// update — and readout entry points materialize the permutation back
// to the identity layout lazily, on first access.
type State struct {
	n       int
	amps    []complex128
	workers int
	scratch [][]complex128 // per-worker gather buffers for fused gates
	idxBuf  [][]uint64     // per-worker scatter-index buffers for fused gates
	sortBuf []int          // reusable sorted-qubit buffer for ApplyFused
	maskBuf []uint64       // reusable bit-mask buffer for ApplyFused
	perm    []int          // logical→physical qubit map; nil = identity
	permTab *permTabs      // cached permTables for the current perm; nil = stale
}

// permTabs is the cached physical→logical index-chunk translation of
// one specific permutation. It is immutable once built (invalidation
// replaces the pointer), so clones may share it.
type permTabs struct {
	lo, hi []uint64
	loBits uint
}

// New allocates the n-qubit |0...0> state with the given worker count
// (workers <= 1 selects the serial path).
func New(n, workers int) (*State, error) {
	if n < 0 {
		return nil, fmt.Errorf("statevec: negative qubit count %d", n)
	}
	if n > MaxQubits {
		return nil, fmt.Errorf("statevec: %d qubits exceeds the %d-qubit single-device limit (2^%d amplitudes); use the mgpu engine or the cluster model", n, MaxQubits, n)
	}
	if workers < 1 {
		workers = 1
	}
	s := &State{
		n:       n,
		amps:    make([]complex128, 1<<uint(n)),
		workers: workers,
	}
	s.amps[0] = 1
	s.scratch = make([][]complex128, workers)
	s.idxBuf = make([][]uint64, workers)
	return s, nil
}

// MustNew is New for callers with validated sizes (tests, examples).
func MustNew(n, workers int) *State {
	s, err := New(n, workers)
	if err != nil {
		panic(err)
	}
	return s
}

// NumQubits returns n.
func (s *State) NumQubits() int { return s.n }

// Workers returns the parallel worker count.
func (s *State) Workers() int { return s.workers }

// Len returns the number of amplitudes, 2^n.
func (s *State) Len() int { return len(s.amps) }

// Amp returns amplitude i (in logical qubit order; a pending
// permutation is materialized first).
func (s *State) Amp(i uint64) complex128 {
	if s.perm != nil {
		s.MaterializePerm()
	}
	return s.amps[i]
}

// SetAmp overwrites amplitude i; used by tests and the distributed
// engine's exchange step.
func (s *State) SetAmp(i uint64, v complex128) {
	if s.perm != nil {
		s.MaterializePerm()
	}
	s.amps[i] = v
}

// Amplitudes exposes the raw amplitude slice (shared, not copied); the
// mgpu engine and samplers iterate it directly. A pending qubit
// permutation is materialized first so indices read in logical order.
func (s *State) Amplitudes() []complex128 {
	if s.perm != nil {
		s.MaterializePerm()
	}
	return s.amps
}

// Reset returns the state to |0...0>.
func (s *State) Reset() {
	s.perm = nil
	s.permTab = nil
	for i := range s.amps {
		s.amps[i] = 0
	}
	s.amps[0] = 1
}

// PrepareBasis sets the state to the computational basis state |idx>.
func (s *State) PrepareBasis(idx uint64) error {
	if idx >= uint64(len(s.amps)) {
		return fmt.Errorf("statevec: basis index %d out of range", idx)
	}
	s.perm = nil
	s.permTab = nil
	for i := range s.amps {
		s.amps[i] = 0
	}
	s.amps[idx] = 1
	return nil
}

// Norm returns the 2-norm of the state, which every unitary op must
// preserve at 1 (the Eq. 1 constraint Σ|αi|² = 1).
func (s *State) Norm() float64 {
	var acc float64
	for _, a := range s.amps {
		acc += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(acc)
}

// InnerProduct returns <s|o>.
func (s *State) InnerProduct(o *State) (complex128, error) {
	if s.n != o.n {
		return 0, fmt.Errorf("statevec: size mismatch %d vs %d qubits", s.n, o.n)
	}
	if s.perm != nil {
		s.MaterializePerm()
	}
	if o.perm != nil {
		o.MaterializePerm()
	}
	var acc complex128
	for i, a := range s.amps {
		acc += cmplx.Conj(a) * o.amps[i]
	}
	return acc, nil
}

// Fidelity returns |<s|o>|².
func (s *State) Fidelity(o *State) (float64, error) {
	ip, err := s.InnerProduct(o)
	if err != nil {
		return 0, err
	}
	m := cmplx.Abs(ip)
	return m * m, nil
}

// Clone returns a deep copy sharing no storage.
func (s *State) Clone() *State {
	c := MustNew(s.n, s.workers)
	copy(c.amps, s.amps)
	if s.perm != nil {
		c.perm = append([]int(nil), s.perm...)
		c.permTab = s.permTab // immutable once built; safe to share
	}
	return c
}

// Probabilities returns |αi|² for every basis state in logical qubit
// order (allocates 2^n float64). A pending qubit permutation is read
// *through*, not materialized: scattering |amps[i]|² to its logical
// slot costs two table lookups per index — far cheaper than the up to
// n-1 bit-swap sweeps a physical rearrangement would pay — and the
// amplitude layout is left untouched for further tiled execution.
func (s *State) Probabilities() []float64 {
	p := make([]float64, len(s.amps))
	v := lanes(s.amps)
	if s.perm == nil {
		s.parallelRange(len(s.amps), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ar, ai := v[2*i], v[2*i+1]
				p[i] = float64(ar*ar) + float64(ai*ai)
			}
		})
		return p
	}
	tabLo, tabHi, loBits := s.permTables()
	loMask := uint64(1)<<loBits - 1
	s.parallelRange(len(s.amps), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ar, ai := v[2*i], v[2*i+1]
			l := tabLo[uint64(i)&loMask] | tabHi[uint64(i)>>loBits]
			p[l] = float64(ar*ar) + float64(ai*ai)
		}
	})
	return p
}

// permTables returns physical→logical index-chunk lookup tables: a bit
// permutation maps each index chunk independently, so logical(i) =
// tabLo[low chunk] | tabHi[high chunk]. The tables are built once per
// permutation and cached on the state (every perm mutation clears the
// cache), so repeated readout — the sample-then-read-again pattern of
// shot loops — pays the O(2^(n/2)) rebuild only when the layout
// actually changed.
func (s *State) permTables() (tabLo, tabHi []uint64, loBits uint) {
	if tab := s.permTab; tab != nil {
		return tab.lo, tab.hi, tab.loBits
	}
	loBits = uint(s.n) / 2
	hiBits := uint(s.n) - loBits
	inv := make([]int, s.n) // physical→logical
	for q, pos := range s.perm {
		inv[pos] = q
	}
	tabLo = make([]uint64, 1<<loBits)
	for v := range tabLo {
		var l uint64
		for b := uint(0); b < loBits; b++ {
			l |= (uint64(v) >> b & 1) << uint(inv[b])
		}
		tabLo[v] = l
	}
	tabHi = make([]uint64, 1<<hiBits)
	for v := range tabHi {
		var l uint64
		for b := uint(0); b < hiBits; b++ {
			l |= (uint64(v) >> b & 1) << uint(inv[loBits+b])
		}
		tabHi[v] = l
	}
	s.permTab = &permTabs{lo: tabLo, hi: tabHi, loBits: loBits}
	return tabLo, tabHi, loBits
}

// ProbOne returns the probability that logical qubit q measures 1. A
// pending permutation is consulted, not materialized: only the bit
// position changes. The sum follows the canonical chunked reduction
// (sequential within ExpChunkBits-wide chunks, TreeSum over chunk
// partials), so the value is bit-identical for any worker count — the
// same contract as the Pauli reduction (Shard).
func (s *State) ProbOne(q int) float64 {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("statevec: qubit %d out of range", q))
	}
	if s.perm != nil {
		q = s.perm[q]
	}
	return s.maskedNorm2(uint(q), 1)
}

// maskedNorm2 returns Σ|amps[i]|² over indices whose bit t equals
// val, reduced in the canonical chunk order (worker-count independent).
func (s *State) maskedNorm2(t uint, val uint64) float64 {
	half := len(s.amps) >> 1
	if half == 0 {
		return 0
	}
	cb := ExpChunkBits(s.n)
	nChunks := half >> uint(cb)
	partials := make([]float64, nChunks)
	v := lanes(s.amps)
	step := 1 << t
	chunk := func(c int) float64 {
		var acc float64
		lo, hi := c<<uint(cb), (c+1)<<uint(cb)
		if t == 0 {
			base := 4*lo + 2*int(val)
			for j := base; j < 4*hi; j += 4 {
				ar, ai := v[j], v[j+1]
				acc += float64(ar*ar) + float64(ai*ai)
			}
			return acc
		}
		for p := lo; p < hi; {
			within := p & (step - 1)
			run := step - within
			if run > hi-p {
				run = hi - p
			}
			j := 2 * int(insertBit(uint64(p), t, val))
			for e := j + 2*run; j < e; j += 2 {
				ar, ai := v[j], v[j+1]
				acc += float64(ar*ar) + float64(ai*ai)
			}
			p += run
		}
		return acc
	}
	s.parallelTiles(nChunks, cb, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			partials[c] = chunk(c)
		}
	})
	return TreeSum(partials)
}

// ExpZ returns <Z_q> = P(0) - P(1) on qubit q — the observable the
// QCrank decoder estimates from shots.
func (s *State) ExpZ(q int) float64 { return 1 - 2*s.ProbOne(q) }

// checkQubit panics on out-of-range targets: gate application is on the
// hot path and the callers (kernel executor) validate programs up
// front, so this is a programming-error guard, not input validation.
func (s *State) checkQubit(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("statevec: qubit %d out of range [0,%d)", q, s.n))
	}
}

// qmathBit is re-exported for the hot loops below.
func insertBit(x uint64, pos uint, val uint64) uint64 { return qmath.InsertBit(x, pos, val) }

// --- Lazy qubit-permutation table ---
//
// The tiled executor relabels qubits instead of moving amplitudes: a
// SWAP gate, or a planned relabeling that brings a hot high qubit into
// a tile-resident position, is recorded here and only turned into data
// movement when (a) the executor itself pays one bit-swap sweep to
// relocate a qubit, or (b) readout needs the canonical logical layout.

// ensureCanonical materializes any pending qubit permutation so that
// gate kernels can address raw bit positions; a nil check keeps it
// free on the common path.
func (s *State) ensureCanonical() {
	if s.perm != nil {
		s.MaterializePerm()
	}
}

// PermIsIdentity reports whether the amplitude layout is the canonical
// logical order.
func (s *State) PermIsIdentity() bool {
	if s.perm == nil {
		return true
	}
	for q, p := range s.perm {
		if q != p {
			return false
		}
	}
	return true
}

// Permutation returns a copy of the logical→physical qubit map, or nil
// when the layout is canonical.
func (s *State) Permutation() []int {
	if s.perm == nil {
		return nil
	}
	return append([]int(nil), s.perm...)
}

// SetPermutation declares that the amplitude data is currently laid
// out with logical qubit q at physical bit position perm[q]. Any
// previously pending permutation is materialized first, so the new
// table describes the raw layout. perm must be a permutation of
// [0, n).
func (s *State) SetPermutation(perm []int) error {
	if len(perm) != s.n {
		return fmt.Errorf("statevec: permutation has %d entries, want %d", len(perm), s.n)
	}
	seen := make([]bool, s.n)
	identity := true
	for q, p := range perm {
		if p < 0 || p >= s.n || seen[p] {
			return fmt.Errorf("statevec: invalid permutation %v", perm)
		}
		seen[p] = true
		if p != q {
			identity = false
		}
	}
	if s.perm != nil {
		s.MaterializePerm()
	}
	s.permTab = nil
	if identity {
		s.perm = nil
		return nil
	}
	s.perm = append([]int(nil), perm...)
	return nil
}

// SwapLogical exchanges the physical homes of logical qubits a and b —
// the free realization of a SWAP gate: a table update, no data
// movement.
func (s *State) SwapLogical(a, b int) {
	s.checkQubit(a)
	s.checkQubit(b)
	if a == b {
		return
	}
	if s.perm == nil {
		s.perm = make([]int, s.n)
		for q := range s.perm {
			s.perm[q] = q
		}
	}
	s.perm[a], s.perm[b] = s.perm[b], s.perm[a]
	s.permTab = nil
}

// MaterializePerm rearranges the amplitude data back to the canonical
// layout (logical qubit q at bit position q) and clears the table. It
// decomposes the bit permutation into at most n-1 physical bit-swap
// sweeps, placing one qubit per sweep.
func (s *State) MaterializePerm() {
	if s.perm == nil {
		return
	}
	perm := s.perm
	s.perm = nil // swapBits below must operate on the raw layout
	s.permTab = nil
	inv := make([]int, s.n)
	for q, p := range perm {
		inv[p] = q
	}
	for pos := 0; pos < s.n; pos++ {
		q := inv[pos] // logical qubit currently living at position pos
		if q == pos {
			continue
		}
		src := perm[pos] // where logical qubit pos currently lives
		s.swapBits(uint(pos), uint(src))
		perm[pos], perm[q] = pos, src
		inv[pos], inv[src] = pos, q
	}
}
