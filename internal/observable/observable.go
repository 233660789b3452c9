// Package observable implements Pauli-string observables and
// Hamiltonian partitioning — the workload structure behind the paper's
// Fig. 2c large-circuit mode, where "the simulation process partitions
// them into distinct Hamiltonians ... distributed across multiple
// hardware resources, thereby enabling efficient parallelization".
//
// A Hamiltonian is a real-weighted sum of Pauli strings. Expectation
// values are evaluated directly against the resident state vector in
// one block-major pass per Hamiltonian; per-term summation order
// unchanged (statevec.State.ExpPauliGroup): no clone, no basis-rotation
// sweeps, and only the affected index half enumerated per term. A
// pending qubit permutation is materialized once, before the pass, so
// every term reads canonical indices. Partition splits the term list
// into balanced groups, and ExpectationParallel evaluates stripes of
// terms concurrently across simulated devices, one pass per stripe,
// with a bit-identical result.
package observable

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"qgear/internal/cancel"
	"qgear/internal/statevec"
)

// Pauli is a single-qubit Pauli factor.
type Pauli uint8

// Pauli factors (I is implied by absence).
const (
	X Pauli = iota + 1
	Y
	Z
)

func (p Pauli) String() string {
	switch p {
	case X:
		return "X"
	case Y:
		return "Y"
	case Z:
		return "Z"
	}
	return "I"
}

// Term is one weighted Pauli string, stored sparsely as qubit→factor.
type Term struct {
	Coef float64
	Ops  map[int]Pauli
}

// NewTerm builds a term from (qubit, factor) pairs.
func NewTerm(coef float64, factors map[int]Pauli) Term {
	ops := make(map[int]Pauli, len(factors))
	for q, p := range factors {
		ops[q] = p
	}
	return Term{Coef: coef, Ops: ops}
}

// String renders e.g. "0.5·Z0Z2".
func (t Term) String() string {
	if len(t.Ops) == 0 {
		return fmt.Sprintf("%g·I", t.Coef)
	}
	qs := make([]int, 0, len(t.Ops))
	for q := range t.Ops {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	var b strings.Builder
	fmt.Fprintf(&b, "%g·", t.Coef)
	for _, q := range qs {
		fmt.Fprintf(&b, "%s%d", t.Ops[q], q)
	}
	return b.String()
}

// Masks returns the term's X/Y/Z qubit bit-masks over an n-qubit
// register — the representation the direct evaluators (statevec,
// mgpu) consume. The masks are disjoint by construction (one factor
// per qubit).
func (t Term) Masks(n int) (xm, ym, zm uint64, err error) {
	for q, p := range t.Ops {
		if q < 0 || q >= n {
			return 0, 0, 0, fmt.Errorf("observable: qubit %d out of range for %d-qubit register", q, n)
		}
		bit := uint64(1) << uint(q)
		switch p {
		case X:
			xm |= bit
		case Y:
			ym |= bit
		case Z:
			zm |= bit
		default:
			return 0, 0, 0, fmt.Errorf("observable: invalid pauli factor %d on qubit %d", p, q)
		}
	}
	return xm, ym, zm, nil
}

// Expectation computes <ψ|T|ψ> directly on the resident state (no
// clone, no rotation sweeps). A pending qubit permutation is
// materialized first, so s must not be read concurrently.
func (t Term) Expectation(s *statevec.State) (float64, error) {
	v, _, err := t.expectationOn(s)
	return v, err
}

// expectationOn evaluates the term against s, returning the
// coefficient-weighted value and the enumerated index count (the
// stride-iteration invariant the regression tests pin: non-identity
// terms visit exactly half the state).
func (t Term) expectationOn(s *statevec.State) (float64, int, error) {
	vals, visited, err := evaluate(s, []Term{t}, nil)
	if err != nil {
		return 0, 0, err
	}
	return vals[0], visited[0], nil
}

// evaluate computes every term's coefficient-weighted value and visit
// count in one grouped pass over s, polling flag per block pair.
func evaluate(s *statevec.State, terms []Term, flag *cancel.Flag) ([]float64, []int, error) {
	ps := make([]statevec.PauliMasks, len(terms))
	for i, t := range terms {
		xm, ym, zm, err := t.Masks(s.NumQubits())
		if err != nil {
			return nil, nil, err
		}
		ps[i] = statevec.PauliMasks{X: xm, Y: ym, Z: zm}
	}
	vals, visited, err := s.ExpPauliGroup(ps, flag.Err)
	if err != nil {
		return nil, nil, fmt.Errorf("observable: expectation: %w", err)
	}
	for i, t := range terms {
		vals[i] = t.Coef * vals[i]
	}
	return vals, visited, nil
}

// Hamiltonian is a sum of terms over NumQubits qubits.
type Hamiltonian struct {
	NumQubits int
	Terms     []Term
}

// Add appends a term.
func (h *Hamiltonian) Add(t Term) { h.Terms = append(h.Terms, t) }

// Clone returns a deep copy sharing no maps with h, so a caller
// mutating its Hamiltonian after submission cannot poison a server's
// content-addressed caches.
func (h *Hamiltonian) Clone() *Hamiltonian {
	c := &Hamiltonian{NumQubits: h.NumQubits, Terms: make([]Term, len(h.Terms))}
	for i, t := range h.Terms {
		c.Terms[i] = NewTerm(t.Coef, t.Ops)
	}
	return c
}

// Validate checks that every term stays inside the declared register,
// uses only X/Y/Z factors, and carries a finite coefficient (NaN or
// Inf would poison content hashes and cached sums).
func (h *Hamiltonian) Validate() error {
	if h.NumQubits < 0 || h.NumQubits > 64 {
		return fmt.Errorf("observable: invalid qubit count %d", h.NumQubits)
	}
	for i, t := range h.Terms {
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			return fmt.Errorf("observable: term %d has non-finite coefficient %v", i, t.Coef)
		}
		if _, _, _, err := t.Masks(h.NumQubits); err != nil {
			return fmt.Errorf("observable: term %d: %w", i, err)
		}
	}
	return nil
}

// String joins the terms.
func (h *Hamiltonian) String() string {
	parts := make([]string, len(h.Terms))
	for i, t := range h.Terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, " + ")
}

// Expectation evaluates every term sequentially, accumulating in term
// order.
func (h *Hamiltonian) Expectation(s *statevec.State) (float64, error) {
	return h.ExpectationCancel(s, nil)
}

// ExpectationCancel is Expectation with a cooperative cancellation
// flag, polled before every pair of blocks of the one grouped pass, so
// a tripped flag stops the reduction within one block pair. A nil flag
// never trips.
func (h *Hamiltonian) ExpectationCancel(s *statevec.State, flag *cancel.Flag) (float64, error) {
	vals, _, err := evaluate(s, h.Terms, flag)
	if err != nil {
		return 0, err
	}
	var acc float64
	for _, v := range vals {
		acc += v
	}
	return acc, nil
}

// Partition splits the term list into k balanced groups (round-robin),
// the "distinct Hamiltonians" of Fig. 2c.
func (h *Hamiltonian) Partition(k int) [][]Term {
	if k < 1 {
		k = 1
	}
	if k > len(h.Terms) && len(h.Terms) > 0 {
		k = len(h.Terms)
	}
	groups := make([][]Term, k)
	for i, t := range h.Terms {
		groups[i%k] = append(groups[i%k], t)
	}
	return groups
}

// ExpectationParallel partitions the Hamiltonian's terms over
// `devices` concurrent evaluators — the multi-device Hamiltonian
// evaluation mode. A pending permutation is materialized before any
// device starts, after which evaluation is read-only: every device
// evaluates its stripe of terms in one grouped pass over the one
// resident state (no per-device clones), and per-term values land in
// a slice that is then summed in term order: the result is
// bit-identical to Expectation for any device count.
func (h *Hamiltonian) ExpectationParallel(s *statevec.State, devices int) (float64, error) {
	return h.ExpectationParallelCancel(s, devices, nil)
}

// ExpectationParallelCancel is ExpectationParallel with a cooperative
// cancellation flag: every device's pass polls it per block pair and
// abandons its stripe once tripped, so the whole evaluation stops
// within one block pair per device worker. A nil flag never trips.
func (h *Hamiltonian) ExpectationParallelCancel(s *statevec.State, devices int, flag *cancel.Flag) (float64, error) {
	if devices < 1 {
		devices = 1
	}
	if devices > len(h.Terms) && len(h.Terms) > 0 {
		devices = len(h.Terms)
	}
	// Materialize before the fan-out: the devices then only read the
	// layout, so no write races a read.
	s.MaterializePerm()
	vals := make([]float64, len(h.Terms))
	errs := make([]error, devices)
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			var stripe []Term
			for i := d; i < len(h.Terms); i += devices {
				stripe = append(stripe, h.Terms[i])
			}
			sv, _, err := evaluate(s, stripe, flag)
			if err != nil {
				errs[d] = err
				return
			}
			for k, v := range sv {
				vals[d+k*devices] = v
			}
		}(d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	var acc float64
	for _, v := range vals {
		acc += v
	}
	return acc, nil
}

// TransverseFieldIsing builds the n-qubit TFIM chain
// H = -J Σ Z_i Z_{i+1} - g Σ X_i, a standard VQA-era benchmark
// Hamiltonian for the partition mode.
func TransverseFieldIsing(n int, j, g float64) *Hamiltonian {
	h := &Hamiltonian{NumQubits: n}
	for i := 0; i+1 < n; i++ {
		h.Add(NewTerm(-j, map[int]Pauli{i: Z, i + 1: Z}))
	}
	for i := 0; i < n; i++ {
		h.Add(NewTerm(-g, map[int]Pauli{i: X}))
	}
	return h
}
