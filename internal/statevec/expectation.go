package statevec

import (
	"fmt"
	"math/bits"
)

// Canonical Pauli-string expectation evaluation.
//
// ⟨ψ|P|ψ⟩ for a Pauli string P is computed directly against the
// resident amplitude array — no clone, no basis-rotation sweeps. The
// reduction has one layout policy: a pending qubit permutation is
// materialized once (at most n−1 bit-swap sweeps), and every term then
// indexes canonical amplitudes. A Hamiltonian of many terms pays the
// permutation once, not once per term. P acts on a basis state as P|b⟩ = phase(b)·|b ⊕ flip⟩ with flip = X|Y mask and
// phase(b) = i^{|Y|}·(−1)^{popcount(b & (Y|Z))}, so
//
//	⟨P⟩ = Σ_b conj(a_b)·phase(b⊕flip)·a_{b⊕flip}.
//
// Hermiticity pairs b with b⊕flip: iterating only the half with the
// pivot bit (the lowest flip bit) clear and doubling the real part
// visits 2^(n−1) index pairs. A pure-Z string (flip = 0) needs only
// its odd-parity half: ⟨P⟩ = 1 − 2·Σ_{parity(b&Z) odd} |a_b|², using
// the unit norm every unitary evolution preserves. Identity-padded
// few-qubit terms therefore enumerate exactly half the state, never
// 2^n — the same stride discipline as the diagonal gate kernels.
//
// Summation order is part of the contract. The compact enumeration
// index j (b with the pivot bit removed) is split into chunks of
// 2^ExpChunkBits(n) contributions; each chunk is summed sequentially
// in ascending j, and chunk partials reduce through a balanced binary
// tree (TreeSum). Because a rank shard of the distributed engine
// covers a chunk-aligned, power-of-two, contiguous j-range, its
// tree-reduced partial is an exact subtree of the global reduction:
// single-device, tiled (materialized layout), and distributed evaluation
// produce bit-identical values, for any worker count and — via
// expReserveBits — up to 2^expReserveBits ranks.

const (
	// expMaxChunkBits caps one chunk at 2^12 contributions: small
	// enough to parallelize mid-sized states, large enough that the
	// chunk-partial array stays negligible (2^15 float64 at n = 28).
	expMaxChunkBits = 12
	// expReserveBits keeps chunk boundaries inside every rank shard's
	// compact range for up to 2^expReserveBits distributed ranks, the
	// condition for shard partials to compose into the exact global
	// reduction tree.
	expReserveBits = 4
)

// ExpChunkBits returns the canonical chunk width (log2 contributions
// per chunk) of the n-qubit expectation reduction. Every engine must
// use this value for the register's total qubit count — it is part of
// the bit-identity contract, not a tuning knob.
func ExpChunkBits(n int) int {
	cb := n - 1 - expReserveBits
	if cb > expMaxChunkBits {
		cb = expMaxChunkBits
	}
	if cb < 0 {
		cb = 0
	}
	return cb
}

// TreeSum reduces partial sums through a balanced binary tree:
// TreeSum(v) = TreeSum(left half) + TreeSum(right half). On the
// power-of-two lengths the expectation reduction produces, an aligned
// power-of-two sub-range is an exact subtree, which is what lets a
// rank shard reduce locally and still compose bit-identically.
func TreeSum(v []float64) float64 {
	switch len(v) {
	case 0:
		return 0
	case 1:
		return v[0]
	}
	h := len(v) / 2
	return TreeSum(v[:h]) + TreeSum(v[h:])
}

// IPow returns i^k — the evaluator's phase convention for Y factors
// (phase(b) = i^{|Y|}·(−1)^{popcount(b & (Y|Z))}). Exported so the
// distributed engine derives its rank-constant Phase0 from the same
// definition instead of a copy that could drift.
func IPow(k int) complex128 { return iPow(k) }

// iPow returns i^k.
func iPow(k int) complex128 {
	switch k & 3 {
	case 0:
		return 1
	case 1:
		return complex(0, 1)
	case 2:
		return -1
	default:
		return complex(0, -1)
	}
}

// PauliShardArgs describes one shard's slice of the canonical
// evaluation. A single-device state is the degenerate one-rank shard
// (zero ParityBase, Phase0 = i^{|Y|}, pivot always local); the
// distributed engine folds its rank-index bits into Phase0/ParityBase
// and ships partner amplitudes for terms whose flip mask crosses the
// rank boundary.
type PauliShardArgs struct {
	// XMask/YMask/ZMask are the term's factors on shard-local logical
	// qubits (bits ≥ the shard width must be stripped by the caller).
	XMask, YMask, ZMask uint64
	// Flip selects the pair-product evaluation: it reflects the term's
	// FULL flip mask (X|Y over every qubit, rank bits included), which
	// can be nonzero even when the local masks carry no X/Y factor —
	// the pairs then live entirely across the rank boundary and arrive
	// via Partner. False selects the pure-Z parity walk.
	Flip bool
	// Phase0 is the rank-constant phase of flip terms: i^{|Y|} counted
	// over the whole term, times (−1) for each set rank bit under the
	// term's Y|Z mask.
	Phase0 complex128
	// Pivot is the pairing/parity pivot's shard-local position, or −1
	// when the pivot is a rank bit (the shard then enumerates all
	// resident amplitudes; the caller decides participation).
	Pivot int
	// ParityBase seeds the Z-parity with the rank bits' contribution
	// (pure-Z terms with a local pivot only).
	ParityBase int
	// Partner is the partner shard's canonical-layout amplitudes
	// for terms whose flip mask has rank bits; nil means both pair
	// members are resident.
	Partner []complex128
	// ChunkBits is ExpChunkBits of the register's TOTAL qubit count
	// (clamped internally when a shard is smaller than one chunk).
	ChunkBits int
}

// Shard computes the tree-reduced partial of this state's
// contribution stream in canonical chunk order, returning the partial
// and the number of enumerated indices (the visit count the
// stride-iteration regression tests pin). For pure-Z terms the caller
// converts the odd-parity mass S into 1 − 2·S after the final
// reduction. A pending permutation is materialized first; callers that
// evaluate terms concurrently must materialize before they fan out.
func (s *State) Shard(a PauliShardArgs) (float64, int) {
	s.ensureCanonical()
	m := s.n // log2 of the enumeration size
	if a.Pivot >= 0 {
		m = s.n - 1
	}
	cb := a.ChunkBits
	if cb > m {
		cb = m
	}
	if cb < 0 {
		cb = 0
	}
	nChunks := 1 << uint(m-cb)
	partials := make([]float64, nChunks)

	var chunk func(c int) float64
	if a.Flip {
		flip := a.XMask | a.YMask // local flip; rank-bit pairs arrive via Partner
		other := a.Partner
		if other == nil {
			other = s.amps
		}
		sign := a.YMask | a.ZMask
		ph0 := a.Phase0
		pivot := a.Pivot
		chunk = func(c int) float64 {
			var acc float64
			lo, hi := c<<uint(cb), (c+1)<<uint(cb)
			for j := lo; j < hi; j++ {
				b := uint64(j)
				if pivot >= 0 {
					b = insertBit(b, uint(pivot), 0)
				}
				ph := ph0
				if bits.OnesCount64(b&sign)&1 == 1 {
					ph = -ph
				}
				am := s.amps[b]
				pm := other[b^flip]
				t := ph * am * complex(real(pm), -imag(pm))
				acc += 2 * real(t)
			}
			return acc
		}
	} else {
		zm := a.ZMask
		pb := a.ParityBase & 1
		pivot := a.Pivot
		chunk = func(c int) float64 {
			var acc float64
			lo, hi := c<<uint(cb), (c+1)<<uint(cb)
			for j := lo; j < hi; j++ {
				b := uint64(j)
				if pivot >= 0 {
					b = insertBit(b, uint(pivot), 0)
					par := (pb + bits.OnesCount64(b&zm)) & 1
					b |= uint64(1-par) << uint(pivot)
				}
				am := s.amps[b]
				acc += real(am)*real(am) + imag(am)*imag(am)
			}
			return acc
		}
	}
	s.parallelTiles(nChunks, cb, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			partials[c] = chunk(c)
		}
	})
	return TreeSum(partials), 1 << uint(m)
}

// ExpPauli computes ⟨ψ|P|ψ⟩ for the Pauli string given as logical
// qubit masks, returning the value (without any coefficient) and the
// enumerated index count. The three masks must be disjoint and within
// the register; all-zero masks denote the identity (value 1, zero
// visits). A pending permutation is materialized first (see Shard).
func (s *State) ExpPauli(xm, ym, zm uint64) (float64, int, error) {
	all := xm | ym | zm
	if s.n < 64 && all>>uint(s.n) != 0 {
		return 0, 0, fmt.Errorf("statevec: pauli masks %x/%x/%x exceed %d qubits", xm, ym, zm, s.n)
	}
	if xm&ym|ym&zm|xm&zm != 0 {
		return 0, 0, fmt.Errorf("statevec: overlapping pauli masks %x/%x/%x", xm, ym, zm)
	}
	if all == 0 {
		return 1, 0, nil
	}
	args := PauliShardArgs{XMask: xm, YMask: ym, ZMask: zm, ChunkBits: ExpChunkBits(s.n)}
	if flip := xm | ym; flip != 0 {
		args.Flip = true
		args.Phase0 = iPow(bits.OnesCount64(ym))
		args.Pivot = bits.TrailingZeros64(flip)
		v, visited := s.Shard(args)
		return v, visited, nil
	}
	args.Pivot = bits.TrailingZeros64(zm)
	sOdd, visited := s.Shard(args)
	return 1 - 2*sOdd, visited, nil
}
