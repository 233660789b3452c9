package mgpu

import (
	"math"
	"testing"

	"qgear/internal/gate"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// soupK builds a random kernel exercising rank-bit gates.
func soupK(t *testing.T, n, ops int, seed uint64) *kernel.Kernel {
	t.Helper()
	r := qmath.NewRNG(seed)
	k := &kernel.Kernel{Name: "exp_soup", NumQubits: n}
	for i := 0; i < ops; i++ {
		q := r.Intn(n)
		q2 := (q + 1 + r.Intn(n-1)) % n
		switch r.Intn(6) {
		case 0:
			k.Instrs = append(k.Instrs, kernel.Instr{Kind: kernel.KGate, Gate: gate.H, Qubits: []int{q}})
		case 1:
			k.Instrs = append(k.Instrs, kernel.Instr{Kind: kernel.KGate, Gate: gate.RY, Qubits: []int{q}, Params: []float64{r.Angle()}})
		case 2:
			k.Instrs = append(k.Instrs, kernel.Instr{Kind: kernel.KGate, Gate: gate.RZ, Qubits: []int{q}, Params: []float64{r.Angle()}})
		case 3:
			k.Instrs = append(k.Instrs, kernel.Instr{Kind: kernel.KGate, Gate: gate.CX, Qubits: []int{q, q2}})
		case 4:
			k.Instrs = append(k.Instrs, kernel.Instr{Kind: kernel.KGate, Gate: gate.CP, Qubits: []int{q, q2}, Params: []float64{r.Angle()}})
		case 5:
			k.Instrs = append(k.Instrs, kernel.Instr{Kind: kernel.KGate, Gate: gate.SWAP, Qubits: []int{q, q2}})
		}
	}
	return k
}

// singleDeviceExpectation executes the same kernel on one process and
// evaluates through the shared canonical evaluator.
func singleDeviceExpectation(t *testing.T, k *kernel.Kernel, h *observable.Hamiltonian) float64 {
	t.Helper()
	s := statevec.MustNew(k.NumQubits, 1)
	if err := kernel.Execute(k, s); err != nil {
		t.Fatal(err)
	}
	v, err := h.Expectation(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestExpectationMatchesSingleDevice sweeps rank counts × per-gate/
// planned execution: every distributed value must be bit-identical to
// the single-process evaluation, with terms landing on every
// global/local mask split (Z, X, Y factors on rank bits included).
func TestExpectationMatchesSingleDevice(t *testing.T) {
	r := qmath.NewRNG(31337)
	for trial := 0; trial < 10; trial++ {
		n := 4 + r.Intn(6) // 4..9
		k := soupK(t, n, 30+r.Intn(40), r.Uint64())
		h := &observable.Hamiltonian{NumQubits: n}
		// Deliberately include rank-bit factors: terms on the top qubits.
		h.Add(observable.NewTerm(1.25, map[int]observable.Pauli{n - 1: observable.X}))
		h.Add(observable.NewTerm(-0.5, map[int]observable.Pauli{n - 1: observable.Z}))
		h.Add(observable.NewTerm(0.75, map[int]observable.Pauli{n - 1: observable.Y, 0: observable.Z}))
		h.Add(observable.NewTerm(-2, map[int]observable.Pauli{n - 1: observable.Z, n - 2: observable.Z}))
		h.Add(observable.NewTerm(0.3, map[int]observable.Pauli{n - 1: observable.X, n - 2: observable.Y}))
		for ti := 0; ti < 3; ti++ {
			ops := make(map[int]observable.Pauli)
			for kk := 0; kk <= r.Intn(3); kk++ {
				ops[r.Intn(n)] = observable.Pauli(1 + r.Intn(3))
			}
			h.Add(observable.NewTerm(2*r.Float64()-1, ops))
		}

		want := singleDeviceExpectation(t, k, h)
		for _, ranks := range []int{2, 4, 8} {
			if n-int(qmath.Log2Ceil(uint64(ranks))) < 2 {
				continue
			}
			perGate, err := ExpectationKernel(k, h, ranks, 1)
			if err != nil {
				t.Fatalf("ranks=%d per-gate: %v", ranks, err)
			}
			if perGate.Value != want {
				t.Fatalf("trial %d ranks=%d per-gate: %.17g != single-device %.17g", trial, ranks, perGate.Value, want)
			}
			tb := 1 + r.Intn(2)
			plan, err := kernel.Plan(k, kernel.PlanConfig{TileBits: tb, GlobalBits: int(qmath.Log2Ceil(uint64(ranks)))})
			if err != nil {
				t.Fatalf("ranks=%d plan: %v", ranks, err)
			}
			planned, err := ExpectationCompiled(k, plan, h, ranks, 2)
			if err != nil {
				t.Fatalf("ranks=%d planned: %v", ranks, err)
			}
			if planned.Value != want {
				t.Fatalf("trial %d ranks=%d planned(tile=%d): %.17g != single-device %.17g", trial, ranks, tb, planned.Value, want)
			}
			if planned.Terms != len(h.Terms) {
				t.Fatalf("terms %d, want %d", planned.Terms, len(h.Terms))
			}
		}
	}
}

// TestExpectationIdentityAndEmpty covers the degenerate shapes.
func TestExpectationIdentityAndEmpty(t *testing.T) {
	k := soupK(t, 4, 10, 1)
	empty := &observable.Hamiltonian{NumQubits: 4}
	res, err := ExpectationKernel(k, empty, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Fatalf("empty hamiltonian: %g", res.Value)
	}
	ident := &observable.Hamiltonian{NumQubits: 4}
	ident.Add(observable.NewTerm(2.5, nil))
	res, err = ExpectationKernel(k, ident, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-2.5) > 0 {
		t.Fatalf("identity term: %g", res.Value)
	}
	bad := &observable.Hamiltonian{NumQubits: 4}
	bad.Add(observable.NewTerm(1, map[int]observable.Pauli{9: observable.Z}))
	if _, err := ExpectationKernel(k, bad, 2, 1); err == nil {
		t.Fatal("out-of-range term accepted")
	}
}

// TestExpGroupBitIdentityRanks is the distributed half of the
// block-major pass's exact-bits suite: random Hamiltonians with low
// and high pivots, Z strings on the top qubits, every Y phase, rank-bit
// X/Y terms (exchanged, evaluated alone), identity and duplicate terms,
// at 2, 4 and 8 ranks, must reproduce the single-device value bit for
// bit, and that value must equal the term-by-term sum of one-term
// passes.
func TestExpGroupBitIdentityRanks(t *testing.T) {
	r := qmath.NewRNG(1018)
	paulis := []observable.Pauli{observable.X, observable.Y, observable.Z}
	for trial := 0; trial < 8; trial++ {
		n := 5 + r.Intn(8) // 5..12
		k := soupK(t, n, 40, r.Uint64())
		h := &observable.Hamiltonian{NumQubits: n}
		for i := 0; i < 12; i++ {
			ops := make(map[int]observable.Pauli)
			lo := 0
			if r.Intn(2) == 0 {
				lo = n / 2 // high pivots and top-qubit Z strings
			}
			for q := lo; q < n; q++ {
				if r.Intn(3) == 0 {
					ops[q] = paulis[r.Intn(3)]
				}
			}
			term := observable.NewTerm(2*r.Float64()-1, ops)
			h.Add(term)
			if r.Intn(4) == 0 {
				h.Add(term) // duplicate
			}
		}
		h.Add(observable.NewTerm(0.5, nil))

		want := singleDeviceExpectation(t, k, h)
		s := statevec.MustNew(n, 1)
		if err := kernel.Execute(k, s); err != nil {
			t.Fatal(err)
		}
		var perTerm float64
		for _, term := range h.Terms {
			v, err := term.Expectation(s)
			if err != nil {
				t.Fatal(err)
			}
			perTerm += v
		}
		if math.Float64bits(perTerm) != math.Float64bits(want) {
			t.Fatalf("trial %d: grouped %.17g != per-term %.17g", trial, want, perTerm)
		}
		for _, ranks := range []int{2, 4, 8} {
			if n-int(qmath.Log2Ceil(uint64(ranks))) < 2 {
				continue
			}
			res, err := ExpectationKernel(k, h, ranks, 2)
			if err != nil {
				t.Fatalf("ranks=%d: %v", ranks, err)
			}
			if math.Float64bits(res.Value) != math.Float64bits(want) {
				t.Fatalf("trial %d ranks=%d: %.17g != single-device %.17g", trial, ranks, res.Value, want)
			}
		}
	}
}
