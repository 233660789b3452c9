package statevec

import (
	"fmt"
	"math/bits"
	"sync"
)

// Canonical Pauli-string expectation evaluation: one block-major pass
// per Hamiltonian; per-term summation order unchanged.
//
// ⟨ψ|P|ψ⟩ for a Pauli string P is computed directly against the
// resident amplitude array — no clone, no basis-rotation sweeps. The
// reduction has one layout policy: a pending qubit permutation is
// materialized once (at most n−1 bit-swap sweeps), and every term then
// indexes canonical amplitudes. P acts on a basis state as
// P|b⟩ = phase(b)·|b ⊕ flip⟩ with flip = X|Y mask and
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
//
// Evaluation is block-major. A block is an aligned run of
// 2^(ExpChunkBits+1) amplitudes (128 KiB at n = 22). A chunk of a term
// whose pivot lies inside the block width reads exactly one block,
// both pair members; a higher pivot's chunk reads one half block and
// the partner half in another block. ShardGroup walks the blocks once
// and, while a block is cache-resident, computes every chunk of every
// term that reads it. Each term keeps its own chunk-partial array, so
// grouping changes no term's bits:
//
//   - Indices are enumerated by nested runs (the pivot splits a block
//     into runs of 2^pivot pair members), never by a per-index bit
//     insertion. The (−1)^parity sign is taken once per run, or per
//     piece of a run when the Y|Z mask has bits below the pivot.
//   - A flip term's phase is ±1 or ±i, so 2·Re(phase·a·conj(p)) is
//     exactly ±2·(ar·pr + ai·pi) or ±2·(ar·pi − ai·pr): the complex
//     multiplies collapse to two products, wrapped in float64() so no
//     fused multiply-add can change a rounding (see lanes.go).
//   - |a_b|² is computed once per block for all Z terms. Visiting the
//     odd-parity member of each pair in ascending j is visiting the
//     block in ascending b (the Z mask has no bit below the pivot), so
//     a low-pivot Z term sums the shared norms run by run. A Z term
//     whose pivot is at or above the chunk width reads whole half
//     blocks, so its chunks are the half-block sums every such term
//     shares.
//   - Chunks are independent accumulator chains, so every kernel runs
//     two of a term's chunks in one loop (two blocks, or a block's two
//     halves): one add's latency hides behind the other's while each
//     chunk still sums in its own order.

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
	// term's Y|Z mask. It is one of ±1, ±i.
	Phase0 complex128
	// Pivot is the pairing/parity pivot's shard-local position — the
	// lowest bit of XMask|YMask for flip terms, of ZMask for pure-Z
	// terms — or −1 when the pivot is a rank bit (the shard then
	// enumerates all resident amplitudes; the caller decides
	// participation, and a flip term carries no local flip bits).
	Pivot int
	// ParityBase seeds the Z-parity with the rank bits' contribution
	// (pure-Z terms with a local pivot only).
	ParityBase int
	// Partner is the partner shard's canonical-layout amplitudes
	// for terms whose flip mask has rank bits; nil means both pair
	// members are resident.
	Partner []complex128
	// ChunkBits is ExpChunkBits of the register's TOTAL qubit count
	// (clamped internally when a shard is smaller than one chunk). All
	// terms of one ShardGroup call share it.
	ChunkBits int
}

// Shard is the one-term ShardGroup: the tree-reduced partial of this
// state's contribution stream for a, and the number of enumerated
// indices.
func (s *State) Shard(a PauliShardArgs) (float64, int) {
	v, visited, _ := s.ShardGroup([]PauliShardArgs{a}, nil)
	return v[0], visited[0]
}

// ShardGroup computes, for every term of args, the tree-reduced
// partial of this state's contribution stream in canonical chunk order
// and the number of enumerated indices (the visit count the
// stride-iteration regression tests pin), in one block-major pass over
// the amplitudes. For pure-Z terms the caller converts the odd-parity
// mass S into 1 − 2·S after the final reduction.
//
// poll, when non-nil, is called once up front and then before every
// pair of blocks a worker takes on; its first non-nil result stops the
// pass (each worker finishes at most the pair it is in) and is
// returned instead of values. A pending permutation is
// materialized first; callers that evaluate concurrently must
// materialize before they fan out.
func (s *State) ShardGroup(args []PauliShardArgs, poll func() error) ([]float64, []int, error) {
	if poll != nil {
		if err := poll(); err != nil {
			return nil, nil, err
		}
	}
	s.ensureCanonical()
	g := s.newExpPass(args)
	var (
		mu      sync.Mutex
		stopped error
	)
	if len(g.terms) > 0 {
		s.parallelTiles(g.blocks, g.blockBits, func(_, lo, hi int) {
			var nx, ny []float64
			if g.norms {
				nx = make([]float64, 1<<uint(g.blockBits))
				ny = make([]float64, 1<<uint(g.blockBits))
			}
			for b := lo; b < hi; b += 2 {
				if poll != nil {
					if err := poll(); err != nil {
						mu.Lock()
						if stopped == nil {
							stopped = err
						}
						mu.Unlock()
						return
					}
				}
				g.blockPair(b, min(b+1, hi-1), nx, ny)
			}
		})
	}
	if stopped != nil {
		return nil, nil, stopped
	}
	vals, visited := g.finish()
	return vals, visited, nil
}

// PauliMasks is one Pauli string as disjoint logical-qubit masks; all
// zero is the identity.
type PauliMasks struct{ X, Y, Z uint64 }

// ExpPauli computes ⟨ψ|P|ψ⟩ for one Pauli string: the one-term
// ExpPauliGroup.
func (s *State) ExpPauli(xm, ym, zm uint64) (float64, int, error) {
	v, visited, err := s.ExpPauliGroup([]PauliMasks{{X: xm, Y: ym, Z: zm}}, nil)
	if err != nil {
		return 0, 0, err
	}
	return v[0], visited[0], nil
}

// ExpPauliGroup computes ⟨ψ|P|ψ⟩ for every Pauli string of ps in one
// block-major pass, returning the values (without coefficients) and
// each term's enumerated index count. The three masks of a string must
// be disjoint and within the register; all-zero masks denote the
// identity (value 1, zero visits). poll is as for ShardGroup.
func (s *State) ExpPauliGroup(ps []PauliMasks, poll func() error) ([]float64, []int, error) {
	vals := make([]float64, len(ps))
	visited := make([]int, len(ps))
	args := make([]PauliShardArgs, 0, len(ps))
	slots := make([]int, 0, len(ps))
	for i, p := range ps {
		all := p.X | p.Y | p.Z
		if s.n < 64 && all>>uint(s.n) != 0 {
			return nil, nil, fmt.Errorf("statevec: pauli masks %x/%x/%x exceed %d qubits", p.X, p.Y, p.Z, s.n)
		}
		if p.X&p.Y|p.Y&p.Z|p.X&p.Z != 0 {
			return nil, nil, fmt.Errorf("statevec: overlapping pauli masks %x/%x/%x", p.X, p.Y, p.Z)
		}
		if all == 0 {
			vals[i] = 1
			continue
		}
		a := PauliShardArgs{XMask: p.X, YMask: p.Y, ZMask: p.Z, ChunkBits: ExpChunkBits(s.n)}
		if flip := p.X | p.Y; flip != 0 {
			a.Flip = true
			a.Phase0 = iPow(bits.OnesCount64(p.Y))
			a.Pivot = bits.TrailingZeros64(flip)
		} else {
			a.Pivot = bits.TrailingZeros64(p.Z)
		}
		args = append(args, a)
		slots = append(slots, i)
	}
	partials, counts, err := s.ShardGroup(args, poll)
	if err != nil {
		return nil, nil, err
	}
	for k, i := range slots {
		v := partials[k]
		if !args[k].Flip {
			v = 1 - 2*v
		}
		vals[i], visited[i] = v, counts[k]
	}
	return vals, visited, nil
}

// expKind is where a term's chunks live relative to the blocks.
type expKind uint8

const (
	flipIn  expKind = iota // flip pivot inside the block: chunk c is block c
	flipOut                // flip pivot above the block or a rank bit: contiguous chunks of pivot-clear members
	zIn                    // Z pivot below the chunk width: chunk c is block c's odd-parity runs
	zHalf                  // Z pivot at or above the chunk width: chunks are half-block sums
	zBlock                 // rank-bit Z pivot, one chunk per block (shards smaller than two chunks)
)

// expTerm is one term's schedule in the block-major pass.
type expTerm struct {
	kind  expKind
	pivot uint   // shard-local pivot position, when local
	local bool   // false: the pivot is a rank bit
	flip  uint64 // local flip mask
	// sign is the local Y|Z mask behind a flip term's (−1)^parity, and
	// piece the length of the aligned runs over which it is constant.
	sign  uint64
	piece int
	// zm is a Z term's local mask, zWord its 64-entry parity word and
	// par the rank bits' parity.
	zm, zWord, par uint64
	neg, imag      bool      // Phase0 is −1/−i; Phase0 is ±i
	amps, other    []float64 // lanes holding the pivot-clear members and their partners
	chunkBits      int       // log2 contributions per chunk
	visited        int
	partials       []float64
}

// expPass is one ShardGroup call's shared geometry and scratch.
type expPass struct {
	amps      []float64 // lane view of the resident amplitudes
	blockBits int       // log2 amplitudes per block
	halfBits  int       // chunk width of pivot terms: blockBits − 1
	blocks    int
	norms     bool      // some Z term reads the per-block |a|² scratch
	halves    []float64 // sequential |a|² sum of every half block, when a term reads them
	terms     []expTerm
}

// parityWord returns the word whose bit k is parity(k & m), k < 64.
func parityWord(m uint64) uint64 {
	var w uint64
	for k := uint64(0); k < 64; k++ {
		w |= uint64(bits.OnesCount64(k&m)&1) << k
	}
	return w
}

func (s *State) newExpPass(args []PauliShardArgs) *expPass {
	g := &expPass{amps: lanes(s.amps)}
	if len(args) == 0 {
		return g
	}
	cbits := args[0].ChunkBits
	if cbits < 0 {
		cbits = 0
	}
	g.blockBits = min(cbits+1, s.n)
	g.halfBits = g.blockBits - 1
	g.blocks = 1 << uint(s.n-g.blockBits)
	halves := false
	g.terms = make([]expTerm, len(args))
	for i, a := range args {
		if a.ChunkBits != args[0].ChunkBits {
			panic("statevec: ShardGroup terms disagree on ChunkBits")
		}
		if a.Pivot >= s.n || a.Pivot < -1 {
			panic(fmt.Sprintf("statevec: pivot %d outside %d-qubit shard", a.Pivot, s.n))
		}
		t := &g.terms[i]
		m := s.n // log2 of the enumeration size
		t.chunkBits = min(cbits, s.n)
		if a.Pivot >= 0 {
			m = s.n - 1
			t.pivot, t.local = uint(a.Pivot), true
			t.chunkBits = g.halfBits
		}
		t.visited = 1 << uint(m)
		nChunks := 1 << uint(m-t.chunkBits)
		if a.Flip {
			t.flip = a.XMask | a.YMask
			if (a.Pivot < 0 && t.flip != 0) || (a.Pivot >= 0 && t.flip&(2<<t.pivot-1) != 1<<t.pivot) {
				panic(fmt.Sprintf("statevec: pivot %d is not the lowest local flip bit of %x", a.Pivot, t.flip))
			}
			t.sign = a.YMask | a.ZMask
			t.piece = 1 << 62
			if t.sign != 0 {
				t.piece = 1 << uint(bits.TrailingZeros64(t.sign))
			}
			switch a.Phase0 {
			case 1:
			case -1:
				t.neg = true
			case complex(0, 1):
				t.imag = true
			case complex(0, -1):
				t.imag, t.neg = true, true
			default:
				panic(fmt.Sprintf("statevec: flip phase %v is not ±1 or ±i", a.Phase0))
			}
			t.amps, t.other = g.amps, g.amps
			if a.Partner != nil {
				t.other = lanes(a.Partner)
			}
			t.kind = flipOut
			if a.Pivot >= 0 && a.Pivot < g.blockBits {
				t.kind = flipIn
			}
		} else {
			g.norms = true
			t.zm = a.ZMask
			t.zWord = parityWord(t.zm & 63)
			t.par = uint64(a.ParityBase & 1)
			if a.Pivot >= 0 && t.zm&(1<<t.pivot-1) != 0 {
				panic(fmt.Sprintf("statevec: pivot %d is above a bit of Z mask %x", a.Pivot, t.zm))
			}
			switch {
			case a.Pivot >= 0 && a.Pivot < g.halfBits:
				t.kind = zIn
			case a.Pivot >= 0 || t.chunkBits == g.halfBits:
				t.kind = zHalf
				halves = true
			default:
				t.kind = zBlock
			}
		}
		t.partials = make([]float64, nChunks)
	}
	if halves {
		g.halves = make([]float64, 2*g.blocks)
	}
	return g
}

// chunkJob is one chunk of a term within a block pair: its index and
// the first index of its range.
type chunkJob struct{ c, lo int }

// blockPair computes every chunk partial owned by blocks x and y
// (y == x for a lone block). Each term's chunks are computed two at a
// time — two independent accumulator chains in one loop, so one add's
// latency hides behind the other's; an odd chunk count pairs the last
// chunk with itself. nx and ny are the calling worker's |a|² scratch
// (nil when no Z term reads it).
func (g *expPass) blockPair(x, y int, nx, ny []float64) {
	size := 1 << uint(g.blockBits)
	lx, ly := x<<uint(g.blockBits), y<<uint(g.blockBits)
	if nx != nil {
		g.norms2(x, nx)
		if y != x {
			g.norms2(y, ny)
		} else {
			copy(ny, nx)
		}
	}
	var buf [4]chunkJob
	for i := range g.terms {
		t := &g.terms[i]
		jobs := buf[:0]
		switch t.kind {
		case flipIn:
			t.flipJobs(append(jobs, chunkJob{x, lx}, chunkJob{y, ly}), size, 1<<t.pivot)
		case flipOut:
			cl := 1 << uint(t.chunkBits)
			for k, lo := range [2]int{lx, ly} {
				if (k == 1 && y == x) || (t.local && lo>>t.pivot&1 != 0) {
					continue // a lone block, or partners: the block with the pivot bit clear owns the pairs
				}
				for b0 := lo; b0 < lo+size; b0 += cl {
					j := b0 // the compact index: b0 without its (clear) pivot bit
					if t.local {
						j = b0&(1<<t.pivot-1) | b0>>(t.pivot+1)<<t.pivot
					}
					jobs = append(jobs, chunkJob{j >> uint(t.chunkBits), b0})
				}
			}
			t.flipJobs(jobs, cl, cl)
		case zIn:
			t.partials[x], t.partials[y] = t.zOddSum2(nx, ny, lx, ly)
		case zBlock:
			t.partials[x], t.partials[y] = sumRun(nx), sumRun(ny)
		}
	}
}

// norms2 fills nrm with |a_b|² of block blk and, when a term reads
// them, records the block's two half sums (two interleaved chains).
func (g *expPass) norms2(blk int, nrm []float64) {
	size := len(nrm)
	a := g.amps[2*blk*size : 2*(blk+1)*size]
	if g.halves == nil {
		for i := range nrm {
			ar, ai := a[2*i], a[2*i+1]
			nrm[i] = float64(ar*ar) + float64(ai*ai)
		}
		return
	}
	h := size >> 1
	lo, hi := nrm[:h], nrm[h:h+h]
	ahi := a[2*h : 4*h]
	a = a[:2*h]
	var s0, s1 float64
	for i := range lo {
		ar, ai := a[2*i], a[2*i+1]
		br, bi := ahi[2*i], ahi[2*i+1]
		lo[i] = float64(ar*ar) + float64(ai*ai)
		hi[i] = float64(br*br) + float64(bi*bi)
		s0 += lo[i]
		s1 += hi[i]
	}
	g.halves[2*blk], g.halves[2*blk+1] = s0, s1
}

// finish fills the half-block chunks and tree-reduces every term.
func (g *expPass) finish() ([]float64, []int) {
	vals := make([]float64, len(g.terms))
	visited := make([]int, len(g.terms))
	for i := range g.terms {
		t := &g.terms[i]
		if t.kind == zHalf {
			for c := range t.partials {
				j := uint64(c) << uint(t.chunkBits)
				if t.local {
					// The odd-parity members of the chunk's pairs are
					// one whole half block.
					b0 := insertBit(j, t.pivot, 0)
					par := (t.par + uint64(bits.OnesCount64(b0&t.zm))) & 1
					j = b0 | (1-par)<<t.pivot
				}
				t.partials[c] = g.halves[j>>uint(g.halfBits)]
			}
		}
		vals[i] = TreeSum(t.partials)
		visited[i] = t.visited
	}
	return vals, visited
}

// sumRun adds v up in ascending order.
func sumRun(v []float64) float64 {
	var acc float64
	for _, x := range v {
		acc += x
	}
	return acc
}

// zOddSum2 is a low-pivot Z term's chunks over the blocks at lx and ly:
// the ascending sums of nx and ny over the odd-parity member of each
// pair. The parity is constant over a run of 2^pivot pair members,
// and the two blocks differ only in their base parity.
func (t *expTerm) zOddSum2(nx, ny []float64, lx, ly int) (float64, float64) {
	run := 1 << t.pivot
	in := t.zm & uint64(len(nx)-1)
	px := t.par ^ uint64(bits.OnesCount64(uint64(lx)&t.zm)&1)
	dy := px ^ t.par ^ uint64(bits.OnesCount64(uint64(ly)&t.zm)&1)
	ny = ny[:len(nx)]
	seg := max(min(64, len(nx)), 2*run)
	var a0, a1 float64
	for s0 := 0; s0 < len(nx); s0 += seg {
		hp := px ^ uint64(bits.OnesCount64(uint64(s0)&in)&1)
		for base := s0; base < s0+seg; base += 2 * run {
			par := (hp ^ t.zWord>>(uint(base)&63)) & 1
			ox := base + int(1-par)<<t.pivot
			oy := base + int(1-(par^dy))<<t.pivot
			for k := 0; k < run; k++ {
				a0 += nx[ox+k]
				a1 += ny[oy+k]
			}
		}
	}
	return a0, a1
}

// flipJobs computes a flip term's chunks two at a time. Every job
// spans span pair members as runs of length run every 2·run.
func (t *expTerm) flipJobs(jobs []chunkJob, span, run int) {
	for i := 0; i < len(jobs); i += 2 {
		j0, j1 := jobs[i], jobs[min(i+1, len(jobs)-1)]
		if t.imag {
			t.partials[j0.c], t.partials[j1.c] = t.flipCross2(j0.lo, j1.lo, span, run)
		} else {
			t.partials[j0.c], t.partials[j1.c] = t.flipDot2(j0.lo, j1.lo, span, run)
		}
	}
}

// pieceSign is ±1: the phase sign times (−1)^parity(b & sign) for the
// members of a piece starting at b, over which the parity is constant.
func (t *expTerm) pieceSign(b int) float64 {
	if t.neg != (bits.OnesCount64(uint64(b)&t.sign)&1 == 1) {
		return -1
	}
	return 1
}

// flipDot2 sums s·2·(ar·pr + ai·pi) — the real part of ±a·conj(p)
// doubled, exactly as the complex product rounds it — over two chunks
// at once, one accumulator each: the members [base, base+run) of every
// run base = lo, lo+2·run, … below lo+span, each against its partner
// at b ⊕ flip. A run is walked in pieces of constant sign s.
func (t *expTerm) flipDot2(lo0, lo1, span, run int) (float64, float64) {
	a, o, f, d, piece := t.amps, t.other, int(t.flip), lo1-lo0, min(run, t.piece)
	s0, s1 := t.pieceSign(lo0), t.pieceSign(lo1)
	var a0, a1 float64
	for base := lo0; base < lo0+span; base += 2 * run {
		for b0 := base; b0 < base+run; b0 += piece {
			b1 := b0 + d
			if t.sign != 0 {
				s0, s1 = t.pieceSign(b0), t.pieceSign(b1)
			}
			x0 := a[2*b0 : 2*(b0+piece)]
			x1 := a[2*b1 : 2*b1+len(x0)]
			y0 := o[2*(b0^f) : 2*(b0^f)+len(x0)]
			y1 := o[2*(b1^f) : 2*(b1^f)+len(x0)]
			for i := 0; i+1 < len(x0); i += 2 {
				v0 := float64(x0[i]*y0[i]) + float64(x0[i+1]*y0[i+1])
				v1 := float64(x1[i]*y1[i]) + float64(x1[i+1]*y1[i+1])
				a0 += float64(s0 * float64(2*v0))
				a1 += float64(s1 * float64(2*v1))
			}
		}
	}
	return a0, a1
}

// flipCross2 is flipDot2 for an imaginary phase: s·2·(ar·pi − ai·pr),
// the real part of ±i·a·conj(p) doubled.
func (t *expTerm) flipCross2(lo0, lo1, span, run int) (float64, float64) {
	a, o, f, d, piece := t.amps, t.other, int(t.flip), lo1-lo0, min(run, t.piece)
	s0, s1 := t.pieceSign(lo0), t.pieceSign(lo1)
	var a0, a1 float64
	for base := lo0; base < lo0+span; base += 2 * run {
		for b0 := base; b0 < base+run; b0 += piece {
			b1 := b0 + d
			if t.sign != 0 {
				s0, s1 = t.pieceSign(b0), t.pieceSign(b1)
			}
			x0 := a[2*b0 : 2*(b0+piece)]
			x1 := a[2*b1 : 2*b1+len(x0)]
			y0 := o[2*(b0^f) : 2*(b0^f)+len(x0)]
			y1 := o[2*(b1^f) : 2*(b1^f)+len(x0)]
			for i := 0; i+1 < len(x0); i += 2 {
				v0 := float64(x0[i]*y0[i+1]) - float64(x0[i+1]*y0[i])
				v1 := float64(x1[i]*y1[i+1]) - float64(x1[i+1]*y1[i])
				a0 += float64(s0 * float64(2*v0))
				a1 += float64(s1 * float64(2*v1))
			}
		}
	}
	return a0, a1
}
