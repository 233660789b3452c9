package statevec

import (
	"errors"
	"math"
	"math/bits"
	"sync"
	"testing"

	"qgear/internal/gate"
	"qgear/internal/qmath"
)

// expRandomState prepares a scrambled n-qubit state.
func expRandomState(n, workers int, seed uint64) *State {
	r := qmath.NewRNG(seed)
	s := MustNew(n, workers)
	for i := 0; i < 4*n; i++ {
		q := r.Intn(n)
		s.ApplyMat1(q, gate.Matrix1(gate.U3, []float64{r.Angle(), r.Angle(), r.Angle()}))
		if n > 1 {
			s.ApplyCX(q, (q+1+r.Intn(n-1))%n)
		}
	}
	return s
}

// rotationReference computes <P> the pre-expectation-pathway way:
// clone, rotate X/Y into the Z basis, fold the parity over the full
// probability vector — an independent oracle for the direct evaluator.
func rotationReference(s *State, xm, ym, zm uint64) float64 {
	work := s.Clone()
	var mask uint64 = xm | ym | zm
	for q := 0; q < work.NumQubits(); q++ {
		bit := uint64(1) << uint(q)
		switch {
		case xm&bit != 0:
			work.ApplyMat1(q, gate.Matrix1(gate.H, nil))
		case ym&bit != 0:
			work.ApplyMat1(q, gate.Matrix1(gate.Sdg, nil))
			work.ApplyMat1(q, gate.Matrix1(gate.H, nil))
		}
	}
	var acc float64
	for i, a := range work.Amplitudes() {
		p := real(a)*real(a) + imag(a)*imag(a)
		if bits.OnesCount64(uint64(i)&mask)&1 == 1 {
			acc -= p
		} else {
			acc += p
		}
	}
	return acc
}

func TestExpPauliMatchesRotationReference(t *testing.T) {
	r := qmath.NewRNG(5)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(9)
		s := expRandomState(n, 1, r.Uint64())
		var xm, ym, zm uint64
		for q := 0; q < n; q++ {
			switch r.Intn(4) {
			case 1:
				xm |= 1 << uint(q)
			case 2:
				ym |= 1 << uint(q)
			case 3:
				zm |= 1 << uint(q)
			}
		}
		want := rotationReference(s, xm, ym, zm)
		got, _, err := s.ExpPauli(xm, ym, zm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d (n=%d, masks %x/%x/%x): direct %.17g vs rotation %.17g",
				trial, n, xm, ym, zm, got, want)
		}
	}
}

// TestExpPauliVisitCounts pins the stride-iteration contract: every
// non-identity Pauli string enumerates exactly 2^(n-1) indices — half
// the state — never the full 2^n the pre-PR-5 evaluator walked.
func TestExpPauliVisitCounts(t *testing.T) {
	s := expRandomState(8, 1, 3)
	half := 1 << 7
	for _, tc := range []struct {
		name       string
		xm, ym, zm uint64
		want       int
	}{
		{"identity", 0, 0, 0, 0},
		{"single-Z", 0, 0, 1 << 3, half},
		{"ZZ", 0, 0, 1<<2 | 1<<6, half},
		{"single-X", 1 << 5, 0, 0, half},
		{"XYZ", 1 << 0, 1 << 4, 1 << 7, half},
		{"all-Z", 0, 0, 0xff, half},
	} {
		_, visited, err := s.ExpPauli(tc.xm, tc.ym, tc.zm)
		if err != nil {
			t.Fatal(err)
		}
		if visited != tc.want {
			t.Errorf("%s: visited %d indices, want %d", tc.name, visited, tc.want)
		}
	}
}

// TestExpPauliPermutationInvariant evaluates states with pending
// permutations: a physically relabeled layout holding the same
// logical state must give bit-identical values.
func TestExpPauliPermutationInvariant(t *testing.T) {
	r := qmath.NewRNG(11)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(7)
		s := expRandomState(n, 1, r.Uint64())
		var xm, ym, zm uint64
		for q := 0; q < n; q++ {
			switch r.Intn(4) {
			case 0:
				zm |= 1 << uint(q)
			case 1:
				xm |= 1 << uint(q)
			case 2:
				ym |= 1 << uint(q)
			}
		}
		base, _, err := s.ExpPauli(xm, ym, zm)
		if err != nil {
			t.Fatal(err)
		}
		// Physically swap two qubits, then relabel them back: the
		// logical state is unchanged but the layout now carries a
		// pending permutation.
		perm := s.Clone()
		a := r.Intn(n)
		b := (a + 1 + r.Intn(n-1)) % n
		perm.ApplySwap(a, b)
		perm.SwapLogical(a, b)
		if perm.PermIsIdentity() {
			t.Fatal("construction failed to leave a pending permutation")
		}
		got, _, err := perm.ExpPauli(xm, ym, zm)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Fatalf("trial %d: permuted layout %.17g != canonical %.17g", trial, got, base)
		}
	}
}

// TestExpPauliWorkerInvariant pins the reduction contract: the chunked
// tree sum gives the same bits for any worker count.
func TestExpPauliWorkerInvariant(t *testing.T) {
	base := expRandomState(12, 1, 77)
	want, _, err := base.ExpPauli(1<<2, 1<<9, 1<<5|1<<11)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5, 8, 16} {
		s := expRandomState(12, workers, 77)
		got, _, err := s.ExpPauli(1<<2, 1<<9, 1<<5|1<<11)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: %.17g != serial %.17g", workers, got, want)
		}
	}
}

func TestExpPauliValidation(t *testing.T) {
	s := MustNew(3, 1)
	if _, _, err := s.ExpPauli(1<<5, 0, 0); err == nil {
		t.Fatal("out-of-range mask accepted")
	}
	if _, _, err := s.ExpPauli(1, 1, 0); err == nil {
		t.Fatal("overlapping masks accepted")
	}
	v, visited, err := s.ExpPauli(0, 0, 0)
	if err != nil || v != 1 || visited != 0 {
		t.Fatalf("identity: v=%v visited=%d err=%v", v, visited, err)
	}
}

func TestTreeSumShape(t *testing.T) {
	// 8 chunk partials: ((a+b)+(c+d))+((e+f)+(g+h)) — and an aligned
	// half must be an exact subtree.
	v := []float64{1e-16, 1, -1, 1e-16, 3, 1e-3, -4, 0.5}
	full := TreeSum(v)
	composed := TreeSum([]float64{TreeSum(v[:4]), TreeSum(v[4:])})
	if full != composed {
		t.Fatalf("subtree composition broke: %.17g vs %.17g", full, composed)
	}
	if TreeSum(nil) != 0 || TreeSum([]float64{42}) != 42 {
		t.Fatal("degenerate tree sums")
	}
}

// refShard is the per-term reference evaluator the exact-bits suite
// compares ShardGroup against: one parallel pass per term, one
// insertBit and one popcount per visited index, and one serial
// complex-multiply accumulation per chunk, in the canonical chunk
// order.
func refShard(s *State, a PauliShardArgs) (float64, int) {
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

// refExpPauli is ExpPauli on the per-term reference.
func refExpPauli(s *State, p PauliMasks) (float64, int) {
	if p.X|p.Y|p.Z == 0 {
		return 1, 0
	}
	a := PauliShardArgs{XMask: p.X, YMask: p.Y, ZMask: p.Z, ChunkBits: ExpChunkBits(s.n)}
	if flip := p.X | p.Y; flip != 0 {
		a.Flip = true
		a.Phase0 = iPow(bits.OnesCount64(p.Y))
		a.Pivot = bits.TrailingZeros64(flip)
		return refShard(s, a)
	}
	a.Pivot = bits.TrailingZeros64(p.Z)
	v, visited := refShard(s, a)
	return 1 - 2*v, visited
}

// randPauli draws a Pauli string over qubits [lo, hi) of which about
// density·(hi−lo) carry a factor, the Y count left to chance so every
// phase i^{|Y|} shows up.
func randPauli(r *qmath.RNG, lo, hi int, density float64, factors string) PauliMasks {
	var p PauliMasks
	for q := lo; q < hi; q++ {
		if r.Float64() >= density {
			continue
		}
		bit := uint64(1) << uint(q)
		switch factors[r.Intn(len(factors))] {
		case 'X':
			p.X |= bit
		case 'Y':
			p.Y |= bit
		case 'Z':
			p.Z |= bit
		}
	}
	return p
}

// randTerm draws one term of a schedule the block-major pass has: low
// and high pivots, Z strings wholly above the chunk width, Y phases
// 0–3, Z/Y signs under flip runs, or the identity.
func randTerm(r *qmath.RNG, n int) PauliMasks {
	half := ExpChunkBits(n) // pivots at or above this read half blocks
	switch r.Intn(7) {
	case 0: // anywhere, any factor
		return randPauli(r, 0, n, 0.4, "XYZ")
	case 1: // few-qubit low term
		return randPauli(r, 0, min(n, 4), 0.6, "XYZ")
	case 2: // high pivot
		return randPauli(r, min(half+1, n-1), n, 0.5, "XY")
	case 3: // all-high Z string
		return randPauli(r, min(half, n-1), n, 0.6, "Z")
	case 4: // Y-heavy: phases i^k for k = 0..3
		return randPauli(r, 0, n, 0.5, "YYZ")
	case 5: // low Z/Y signs under a high flip
		p := randPauli(r, 0, min(n, 3), 0.7, "YZ")
		p.X |= 1 << uint(n-1-r.Intn(2))
		p.Y &^= p.X
		p.Z &^= p.X
		return p
	}
	return PauliMasks{} // identity
}

// randHamiltonianMasks draws 6–15 random terms, some duplicated.
func randHamiltonianMasks(r *qmath.RNG, n int) []PauliMasks {
	var ps []PauliMasks
	for i := 0; i < 6+r.Intn(10); i++ {
		p := randTerm(r, n)
		ps = append(ps, p)
		if r.Intn(5) == 0 {
			ps = append(ps, p) // duplicate
		}
	}
	return ps
}

// TestExpGroupBitIdentity is the exact-bits differential suite of the
// block-major pass: every term's grouped value must equal the per-term
// reference's Float64bits, and its visit count must match, on random
// Hamiltonians over n = 3..14 at workers {1, 2, 4}, on states with a
// pending permutation, and on the shard shapes of 2, 4 and 8 ranks.
func TestExpGroupBitIdentity(t *testing.T) {
	r := qmath.NewRNG(20251018)
	for n := 3; n <= 14; n++ {
		for _, workers := range []int{1, 2, 4} {
			s := expRandomState(n, workers, r.Uint64())
			if r.Intn(2) == 0 {
				// Pending permutation: move data, relabel it back.
				a := r.Intn(n)
				b := (a + 1 + r.Intn(n-1)) % n
				s.ApplySwap(a, b)
				s.SwapLogical(a, b)
			}
			ps := randHamiltonianMasks(r, n)
			ref := s.Clone()
			got, visited, err := s.ExpPauliGroup(ps, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range ps {
				want, wantVisited := refExpPauli(ref, p)
				if math.Float64bits(got[i]) != math.Float64bits(want) || visited[i] != wantVisited {
					t.Fatalf("n=%d workers=%d term %d (masks %x/%x/%x): grouped %.17g (%d visits) != per-term %.17g (%d)",
						n, workers, i, p.X, p.Y, p.Z, got[i], visited[i], want, wantVisited)
				}
			}
		}
	}
	for _, ranks := range []int{2, 4, 8, 32} {
		rankBits := bits.TrailingZeros(uint(ranks))
		for n := 4; n <= 14; n++ {
			local := n - rankBits
			if local < 1 {
				continue
			}
			checkShardGroup(t, r, n, local, 1+r.Intn(4))
		}
	}
}

// checkShardGroup fuzzes one rank shard of an n-qubit register: random
// shard arguments of every shape the distributed engine builds (rank
// parity bases, rank-folded phases, rank-bit pivots, partner buffers)
// against the per-term reference, grouped in a single call.
func checkShardGroup(t *testing.T, r *qmath.RNG, n, local, workers int) {
	t.Helper()
	s := expRandomState(local, workers, r.Uint64())
	partner := expRandomState(local, 1, r.Uint64()).Amplitudes()
	phases := []complex128{1, -1, complex(0, 1), complex(0, -1), complex(-0.0, -1)}
	var args []PauliShardArgs
	for i := 0; i < 12; i++ {
		p := randTerm(r, local)
		a := PauliShardArgs{XMask: p.X, YMask: p.Y, ZMask: p.Z, ChunkBits: ExpChunkBits(n)}
		flip := p.X | p.Y
		switch {
		case flip != 0:
			a.Flip = true
			a.Phase0 = phases[r.Intn(len(phases))]
			a.Pivot = bits.TrailingZeros64(flip)
			if r.Intn(3) == 0 {
				a.Partner = partner // local flip bits plus rank flip bits
			}
		case r.Intn(3) == 0:
			// Rank-bit flip pivot: no local flip, pairs in Partner.
			a.Flip = true
			a.Phase0 = phases[r.Intn(len(phases))]
			a.Pivot = -1
			a.Partner = partner
		case p.Z != 0:
			a.Pivot = bits.TrailingZeros64(p.Z)
			a.ParityBase = r.Intn(2)
		default:
			// Pure-rank Z: the whole shard sits in the odd subspace.
			a.Pivot = -1
		}
		args = append(args, a)
	}
	ref := s.Clone()
	got, visited, err := s.ShardGroup(args, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range args {
		want, wantVisited := refShard(ref, a)
		if math.Float64bits(got[i]) != math.Float64bits(want) || visited[i] != wantVisited {
			t.Fatalf("n=%d local=%d term %d (%+v): grouped %.17g (%d visits) != per-term %.17g (%d)",
				n, local, i, a, got[i], visited[i], want, wantVisited)
		}
	}
}

// TestShardGroupPollsPerBlockPair pins the cancellation granularity:
// the grouped pass polls before every pair of blocks a worker takes
// on, so a poll that trips stops it within one pair per worker and
// returns the poll's error, not values.
func TestShardGroupPollsPerBlockPair(t *testing.T) {
	stop := errors.New("stop")
	for _, workers := range []int{1, 2} {
		s := expRandomState(16, workers, 9) // 16 blocks of 2^12 amplitudes: 8 pairs
		ps := []PauliMasks{{X: 1}, {Z: 3}, {X: 1 << 15}, {Z: 1 << 14}}
		calls, after := 0, 3
		var mu sync.Mutex
		vals, _, err := s.ExpPauliGroup(ps, func() error {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if calls > after {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) || vals != nil {
			t.Fatalf("workers=%d: tripped poll returned %v, %v", workers, vals, err)
		}
		if calls > after+workers {
			t.Fatalf("workers=%d: %d polls after the trip at %d: not stopped within one block pair", workers, calls, after)
		}
		vals, _, err = s.ExpPauliGroup(ps, func() error { return nil })
		if err != nil || len(vals) != len(ps) {
			t.Fatalf("untripped poll: %v, %v", vals, err)
		}
	}
}
