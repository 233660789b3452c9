package backend

import (
	"errors"
	"math"
	"math/bits"
	"strings"
	"testing"
	"time"

	"qgear/internal/cancel"
	"qgear/internal/circuit"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// The randomized differential suite for observable estimation:
// RunExpectation is cross-validated against (a) a brute-force
// dense-matrix ⟨ψ|H|ψ⟩ reference built term-by-term on independently
// computed amplitudes, and (b) shot-sampled Z-basis estimates within
// statistical tolerance — randomized over qubit counts, tile widths,
// rank counts, fusion settings, and pending-permutation states. The
// per-gate, tiled, and planned-mgpu engines must agree bit for bit.

// soupCircuit generates a gate soup that exercises every plan segment
// kind: single-qubit rotations, diagonals, CX, CP, and explicit SWAPs
// (including trailing ones, so tiled execution finishes with a
// pending qubit permutation the reduction must materialize).
func soupCircuit(n, ops int, seed uint64) *circuit.Circuit {
	r := qmath.NewRNG(seed)
	c := circuit.New(n, 0)
	c.Name = "exp_soup"
	for i := 0; i < ops; i++ {
		q := r.Intn(n)
		q2 := (q + 1 + r.Intn(n-1)) % n
		switch r.Intn(7) {
		case 0:
			c.H(q)
		case 1:
			c.RY(r.Angle(), q)
		case 2:
			c.RZ(r.Angle(), q)
		case 3:
			c.CX(q, q2)
		case 4:
			c.CP(r.Angle(), q, q2)
		case 5:
			c.SWAP(q, q2)
		case 6:
			c.P(r.Angle(), q)
		}
	}
	// Trailing SWAPs: guarantee the tiled engines end on a non-identity
	// permutation table.
	if n >= 2 {
		c.SWAP(0, n-1)
		if n >= 4 {
			c.SWAP(1, n-2)
		}
	}
	return c
}

// randomHamiltonian draws a few-term Hamiltonian with random Pauli
// strings (1..3 qubits each, occasionally an identity term) and
// random coefficients.
func randomHamiltonian(n int, terms int, r *qmath.RNG) *observable.Hamiltonian {
	h := &observable.Hamiltonian{NumQubits: n}
	for i := 0; i < terms; i++ {
		coef := 4*r.Float64() - 2
		if r.Intn(8) == 0 {
			h.Add(observable.NewTerm(coef, nil)) // identity term
			continue
		}
		k := 1 + r.Intn(3)
		if k > n {
			k = n
		}
		ops := make(map[int]observable.Pauli, k)
		for len(ops) < k {
			ops[r.Intn(n)] = observable.Pauli(1 + r.Intn(3))
		}
		h.Add(observable.NewTerm(coef, ops))
	}
	return h
}

// referenceAmps computes the final-state amplitudes through the plain
// per-gate executor with no fusion and no tiling — an execution path
// independent of every engine under test.
func referenceAmps(t *testing.T, c *circuit.Circuit) []complex128 {
	t.Helper()
	k, _, err := kernel.FromCircuit(c, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := statevec.MustNew(c.NumQubits, 1)
	if err := kernel.Execute(k, s); err != nil {
		t.Fatal(err)
	}
	return append([]complex128(nil), s.Amplitudes()...)
}

// bruteForceExpectation evaluates ⟨ψ|H|ψ⟩ term by term from the dense
// operator action: P|b⟩ = phase(b)·|b ⊕ flip⟩ applied to every basis
// amplitude, then the full inner product — no pairing, no parity
// shortcuts, no shared code with the production evaluator.
func bruteForceExpectation(t *testing.T, amps []complex128, h *observable.Hamiltonian) float64 {
	t.Helper()
	n := 0
	for 1<<uint(n) < len(amps) {
		n++
	}
	var total float64
	applied := make([]complex128, len(amps))
	for _, term := range h.Terms {
		xm, ym, zm, err := term.Masks(n)
		if err != nil {
			t.Fatal(err)
		}
		flip := xm | ym
		for i := range applied {
			applied[i] = 0
		}
		for b := range amps {
			// phase(b) = i^{|Y|}·(−1)^{popcount(b & (Y|Z))}
			ph := complex(1, 0)
			for k := 0; k < bits.OnesCount64(ym); k++ {
				ph *= complex(0, 1)
			}
			if bits.OnesCount64(uint64(b)&(ym|zm))&1 == 1 {
				ph = -ph
			}
			applied[uint64(b)^flip] += ph * amps[b]
		}
		var ip complex128
		for b := range amps {
			a := amps[b]
			ip += complex(real(a), -imag(a)) * applied[b]
		}
		total += term.Coef * real(ip)
	}
	return total
}

func expValue(t *testing.T, c *circuit.Circuit, h *observable.Hamiltonian, cfg Config) float64 {
	t.Helper()
	res, err := RunExpectation(c, h, cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Target, err)
	}
	if res.ExpValue == nil {
		t.Fatalf("%s: nil ExpValue", cfg.Target)
	}
	if res.ExpTerms != len(h.Terms) || res.NumQubits != c.NumQubits {
		t.Fatalf("%s: result shape ExpTerms=%d NumQubits=%d", cfg.Target, res.ExpTerms, res.NumQubits)
	}
	if res.Probabilities != nil || res.Counts != nil {
		t.Fatalf("%s: expectation result materialized a readout", cfg.Target)
	}
	return *res.ExpValue
}

func TestExpectationDifferentialSuite(t *testing.T) {
	r := qmath.NewRNG(20250728)
	trials := 24
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + r.Intn(9) // 2..10 qubits: dense reference stays cheap
		ops := 20 + r.Intn(60)
		c := soupCircuit(n, ops, r.Uint64())
		h := randomHamiltonian(n, 1+r.Intn(6), r)

		ref := bruteForceExpectation(t, referenceAmps(t, c), h)
		fusion := 2 + r.Intn(3)
		tb := 2
		if n > 3 {
			tb += r.Intn(n - 3) // forced width in [2, n-1)
		}
		mgpuFits := func(devices int) bool {
			gbits := 0
			for 1<<uint(gbits) < devices {
				gbits++
			}
			return n-gbits >= 2
		}

		// Unfused engines all consume the identical transformed kernel,
		// so every value must be bit-identical across per-gate, tiled
		// (any width, any worker count), term-parallel mqpu, and both
		// distributed modes at any rank count.
		configs := []Config{
			{Target: TargetAer},                                             // serial per-gate baseline
			{Target: TargetNvidia, TileBits: -1},                            // per-gate, parallel workers
			{Target: TargetNvidia, TileBits: tb},                            // tiled, pending perms
			{Target: TargetNvidia, TileBits: tb, Workers: 3},                // odd worker count
			{Target: TargetNvidia, TileBits: tb, Workers: 7},                // worker-count invariance
			{Target: TargetNvidiaMQPU, Devices: 3, TileBits: tb},            // term-partitioned parallel
			{Target: TargetNvidiaMGPU, Devices: 2, TileBits: -1},            // distributed per-gate
			{Target: TargetNvidiaMGPU, Devices: 2},                          // distributed planned
			{Target: TargetNvidiaMGPU, Devices: 4},                          // more ranks
			{Target: TargetNvidiaMGPU, Devices: 8, TileBits: 1, Workers: 2}, // deep rank split
			{Target: TargetNvidiaMGPU, Devices: 4, TileBits: 1, Workers: 1}, // minimal tiles
		}
		var vals []float64
		for _, cfg := range configs {
			if cfg.Target == TargetNvidiaMGPU && !mgpuFits(cfg.Devices) {
				continue // shard too small for this rank count
			}
			vals = append(vals, expValue(t, c, h, cfg))
		}
		for i, v := range vals {
			if d := math.Abs(v - ref); d > 1e-12 {
				t.Fatalf("trial %d (n=%d): engine %d value %.17g deviates %.3g from dense reference %.17g",
					trial, n, i, v, d, ref)
			}
			if v != vals[0] {
				t.Fatalf("trial %d (n=%d): engine %d value %.17g != engine 0 value %.17g — engines must be bit-identical",
					trial, n, i, v, vals[0])
			}
		}

		// Fused kernels change rounding (and the distributed transform
		// fuses only within shard-local qubits, so its kernel differs
		// from the single-device one) — bit-identity is asserted within
		// each engine family sharing a transform, and every family must
		// still match the dense reference to 1e-12.
		fusedPairs := [][2]Config{
			{{Target: TargetNvidia, TileBits: -1, FusionWindow: fusion},
				{Target: TargetNvidia, TileBits: tb, FusionWindow: fusion}},
		}
		if mgpuFits(4) {
			fusedPairs = append(fusedPairs, [2]Config{
				{Target: TargetNvidiaMGPU, Devices: 4, TileBits: -1, FusionWindow: fusion},
				{Target: TargetNvidiaMGPU, Devices: 4, FusionWindow: fusion}})
		}
		for pi, pair := range fusedPairs {
			a := expValue(t, c, h, pair[0])
			b := expValue(t, c, h, pair[1])
			if a != b {
				t.Fatalf("trial %d (n=%d): fused pair %d: per-gate %.17g != planned %.17g",
					trial, n, pi, a, b)
			}
			if d := math.Abs(a - ref); d > 1e-12 {
				t.Fatalf("trial %d (n=%d): fused pair %d deviates %.3g from dense reference", trial, n, pi, d)
			}
		}

		// Plan fusion (within-run 1q pre-multiplication) relaxes
		// bit-identity by design; it must still track the reference.
		pf := expValue(t, c, h, Config{Target: TargetNvidia, TileBits: tb, PlanFusion: true})
		if d := math.Abs(pf - ref); d > 1e-12 {
			t.Fatalf("trial %d (n=%d): plan-fusion value deviates %.3g from dense reference", trial, n, d)
		}
	}
}

// TestExpectationPendingPermutation: evaluating a state left with a
// pending permutation must equal evaluating a copy materialized
// beforehand, bit for bit.
func TestExpectationPendingPermutation(t *testing.T) {
	c := soupCircuit(7, 40, 99)
	h := randomHamiltonian(7, 5, qmath.NewRNG(7))
	comp, err := Compile(c, Config{Target: TargetNvidia, TileBits: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := runSingleState(comp, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.PermIsIdentity() {
		t.Fatal("test needs a pending permutation; adjust the soup")
	}
	mat := s.Clone()
	mat.Amplitudes() // materializes
	vPerm, err := h.Expectation(s)
	if err != nil {
		t.Fatal(err)
	}
	vMat, err := h.Expectation(mat)
	if err != nil {
		t.Fatal(err)
	}
	if vPerm != vMat {
		t.Fatalf("permuted evaluation %.17g != materialized %.17g", vPerm, vMat)
	}
}

// TestExpectationSampledZBasis cross-validates the exact pathway
// against shot-sampled Z-basis estimates: for Z-diagonal random
// Hamiltonians the sampled estimator must land within a few standard
// errors of RunExpectation's value.
func TestExpectationSampledZBasis(t *testing.T) {
	r := qmath.NewRNG(4242)
	for trial := 0; trial < 6; trial++ {
		n := 3 + r.Intn(6)
		c := soupCircuit(n, 30+r.Intn(40), r.Uint64())
		h := &observable.Hamiltonian{NumQubits: n}
		var coefSum float64
		for i := 0; i < 1+r.Intn(4); i++ {
			coef := 2*r.Float64() - 1
			k := 1 + r.Intn(2)
			ops := make(map[int]observable.Pauli, k)
			for len(ops) < k {
				ops[r.Intn(n)] = observable.Z
			}
			h.Add(observable.NewTerm(coef, ops))
			coefSum += math.Abs(coef)
		}

		exact := expValue(t, c, h, Config{Target: TargetNvidia})

		const shots = 200000
		res, err := Run(c, Config{Target: TargetNvidia, Shots: shots, Seed: r.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[uint64]int, len(res.Counts))
		for k, v := range res.Counts {
			counts[k] = v
		}
		est, err := h.EstimateZBasis(counts)
		if err != nil {
			t.Fatal(err)
		}
		// Each term's estimator has stderr ≤ |coef|/√shots; 5σ on the
		// conservative sum keeps the flake rate negligible.
		tol := 5 * coefSum / math.Sqrt(shots)
		if d := math.Abs(est - exact); d > tol {
			t.Fatalf("trial %d (n=%d): sampled %.6f vs exact %.6f, |Δ| %.3g > %.3g",
				trial, n, est, exact, d, tol)
		}
	}
}

// TestExpectationValidation exercises the error paths.
func TestExpectationValidation(t *testing.T) {
	c := circuit.GHZ(4, false)
	if _, err := RunExpectation(c, nil, Config{Target: TargetNvidia}); err == nil {
		t.Fatal("nil hamiltonian accepted")
	}
	tooWide := observable.TransverseFieldIsing(6, 1, 1)
	if _, err := RunExpectation(c, tooWide, Config{Target: TargetNvidia}); err == nil {
		t.Fatal("oversized hamiltonian accepted")
	}
	bad := &observable.Hamiltonian{NumQubits: 4}
	bad.Add(observable.NewTerm(math.NaN(), map[int]observable.Pauli{0: observable.Z}))
	if _, err := RunExpectation(c, bad, Config{Target: TargetNvidia}); err == nil {
		t.Fatal("NaN coefficient accepted")
	}
	if _, err := RunExpectation(c, observable.TransverseFieldIsing(4, 1, 1), Config{Target: "bogus"}); err == nil {
		t.Fatal("invalid target accepted")
	}
}

// TestExpectationCancelledFromExecHook trips the job's deadline from
// the ExecHook of a circuit with no gates, so execution polls nothing
// and the Pauli reduction is the first to see the flag: every engine
// must return the deadline error from its reduction, not a value.
func TestExpectationCancelledFromExecHook(t *testing.T) {
	h := observable.TransverseFieldIsing(12, 1, 0.5)
	h.Add(observable.NewTerm(2, nil)) // an identity term alone needs no pass
	for _, cfg := range []Config{
		{Target: TargetAer},
		{Target: TargetNvidia},
		{Target: TargetNvidiaMQPU, Devices: 3},
		{Target: TargetNvidiaMGPU, Devices: 2},
	} {
		flag := &cancel.Flag{}
		cfg.Cancel = flag
		cfg.ExecHook = func() { flag.SetDeadline(time.Now().Add(-time.Second)) }
		res, err := RunExpectation(circuit.New(12, 0), h, cfg)
		if !errors.Is(err, cancel.ErrDeadline) || res != nil {
			t.Fatalf("%s: got %v, %v; want the deadline error", cfg.Target, res, err)
		}
		if !strings.Contains(err.Error(), "expectation") {
			t.Fatalf("%s: %v was not raised by the reduction", cfg.Target, err)
		}
	}
}
