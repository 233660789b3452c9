// Package mgpu implements the pooled-memory distributed state vector
// behind the paper's 'nvidia-mgpu' target (§3): the 2^n amplitude
// vector is partitioned across R simulated devices (MPI ranks), which
// "effectively combines memory from multiple GPUs" so circuits larger
// than one device's RAM remain simulable — the mechanism that lets the
// paper reach 34 qubits on 4 GPUs and 42 qubits on 1024.
//
// Qubit bits below log2(R) from the top are "local": gates on them
// touch only rank-resident amplitudes. Gates on the top ("global")
// qubits require a pairwise buffer exchange between partner ranks —
// the communication cost that shapes Fig. 4b. Exchange and byte
// counters are exported so the cluster model can be calibrated against
// real exchange counts.
package mgpu

import (
	"fmt"
	"math"
	"time"

	"qgear/internal/cancel"
	"qgear/internal/gate"
	"qgear/internal/kernel"
	"qgear/internal/mpi"
	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// DistState is one rank's shard of a distributed 2^n state vector.
type DistState struct {
	comm    *mpi.Comm
	n       int // total qubits
	local   int // local qubits (amplitude bits resident on this rank)
	st      *statevec.State
	sendBuf []complex128

	// Stats
	exchanges   int
	bytesSent   int64
	avoidedExch int   // exchanges the per-gate baseline would have paid
	exchangeNS  int64 // time this rank spent copying + swapping buffers
	opBuf       []statevec.TileOp
}

// NewDist allocates the shard for this rank. The world size must be a
// power of two no larger than 2^(n-1) so every rank holds at least two
// amplitudes.
func NewDist(comm *mpi.Comm, n, workersPerRank int) (*DistState, error) {
	r := comm.Size()
	if !qmath.IsPow2(uint64(r)) {
		return nil, fmt.Errorf("mgpu: world size %d is not a power of two", r)
	}
	gbits := int(qmath.Log2Ceil(uint64(r)))
	local := n - gbits
	if local < 1 {
		return nil, fmt.Errorf("mgpu: %d ranks leave %d local qubits for %d total", r, local, n)
	}
	st, err := statevec.New(local, workersPerRank)
	if err != nil {
		return nil, err
	}
	if comm.Rank() != 0 {
		st.SetAmp(0, 0) // only the global |0...0> amplitude is 1
	}
	return &DistState{comm: comm, n: n, local: local, st: st}, nil
}

// NumQubits returns the total (global) qubit count.
func (d *DistState) NumQubits() int { return d.n }

// LocalQubits returns the per-rank qubit count.
func (d *DistState) LocalQubits() int { return d.local }

// Exchanges returns how many pairwise buffer exchanges this rank
// performed — the communication metric the Fig. 4b model consumes.
func (d *DistState) Exchanges() int { return d.exchanges }

// BytesSent returns the total bytes this rank shipped to partners.
func (d *DistState) BytesSent() int64 { return d.bytesSent }

// AvoidedExchanges returns how many pairwise exchanges this rank did
// *not* perform relative to the naive per-gate baseline: diagonal and
// phase gates on rank-index qubits resolved locally, plus the extra
// exchanges a batched exchange segment absorbs into its first.
func (d *DistState) AvoidedExchanges() int { return d.avoidedExch }

// ExchangeTime returns how long this rank spent inside pairwise buffer
// exchanges (send-copy plus the blocking swap with the partner) — the
// communication share of its execution wall time, reported as the
// "exchange" stage of a job trace.
func (d *DistState) ExchangeTime() time.Duration { return time.Duration(d.exchangeNS) }

// isGlobal reports whether qubit q lives in the rank-index bits.
func (d *DistState) isGlobal(q int) bool { return q >= d.local }

// rankBit returns this rank's value of global qubit q.
func (d *DistState) rankBit(q int) int {
	return d.comm.Rank() >> uint(q-d.local) & 1
}

// exchange swaps the full local buffer with the partner rank and
// returns the partner's amplitudes. A pending qubit permutation is
// materialized first, so both sides of a pair ship the canonical
// layout. A copy is shipped (not the live slice) because ranks share
// an address space here, while real CUDA-aware MPI would DMA the
// buffer; the copy is also what makes the communication cost
// physically meaningful.
func (d *DistState) exchange(partner int) []complex128 {
	amps := d.st.Amplitudes()
	start := time.Now()
	if d.sendBuf == nil {
		d.sendBuf = make([]complex128, len(amps))
	}
	buf := d.sendBuf
	copy(buf, amps)
	// Ownership of buf transfers to the partner; the buffer received
	// from the partner becomes our send buffer for the next exchange
	// (it is fully consumed before that exchange starts, because gates
	// run sequentially within a rank).
	theirs := d.comm.Exchange(partner, buf).([]complex128)
	d.sendBuf = theirs
	d.exchanges++
	d.bytesSent += int64(len(amps) * 16)
	d.exchangeNS += int64(time.Since(start))
	return theirs
}

// ApplyGate applies a gate across the distributed state. Every rank
// must call it with identical arguments (SPMD, like an MPI program).
func (d *DistState) ApplyGate(g gate.Type, qubits []int, params []float64) error {
	switch {
	case g == gate.Barrier || g == gate.Measure || g == gate.I:
		return nil
	case statevec.IsDiagonalGate(g):
		return d.applyDiagonal(g, qubits, params)
	case g == gate.SWAP:
		if err := d.ApplyGate(gate.CX, []int{qubits[0], qubits[1]}, nil); err != nil {
			return err
		}
		if err := d.ApplyGate(gate.CX, []int{qubits[1], qubits[0]}, nil); err != nil {
			return err
		}
		return d.ApplyGate(gate.CX, []int{qubits[0], qubits[1]}, nil)
	case g.Arity() == 1:
		return d.apply1(qubits[0], gate.Matrix1(g, params))
	case g.Arity() == 2:
		// cz/cp are diagonal and already routed above; only the
		// non-diagonal controlled gates reach here.
		var u gate.Mat2
		switch g {
		case gate.CX:
			u = gate.Matrix1(gate.X, nil)
		case gate.CRY:
			u = gate.Matrix1(gate.RY, params)
		default:
			return fmt.Errorf("mgpu: unhandled two-qubit gate %v", g)
		}
		return d.applyControlled(qubits[0], qubits[1], u)
	}
	return fmt.Errorf("mgpu: unhandled gate %v", g)
}

// apply1 applies a single-qubit unitary.
func (d *DistState) apply1(q int, m gate.Mat2) error {
	if !d.isGlobal(q) {
		d.st.ApplyMat1(q, m)
		return nil
	}
	partner := d.comm.Rank() ^ 1<<uint(q-d.local)
	theirs := d.exchange(partner)
	amps := d.st.Amplitudes()
	if d.rankBit(q) == 0 {
		// This rank holds the |q=0> half: new a0 = m00·a0 + m01·a1.
		for i := range amps {
			amps[i] = m[0]*amps[i] + m[1]*theirs[i]
		}
	} else {
		// |q=1> half: new a1 = m10·a0 + m11·a1.
		for i := range amps {
			amps[i] = m[2]*theirs[i] + m[3]*amps[i]
		}
	}
	return nil
}

// applyControlled applies a controlled single-qubit unitary with the
// four locality cases the paper's multi-GPU layout induces.
func (d *DistState) applyControlled(c, t int, m gate.Mat2) error {
	if c == t {
		return fmt.Errorf("mgpu: control equals target %d", c)
	}
	cGlobal, tGlobal := d.isGlobal(c), d.isGlobal(t)
	switch {
	case !cGlobal && !tGlobal:
		d.st.ApplyControlled1(c, t, m)
		return nil
	case cGlobal && !tGlobal:
		// Control is a rank bit: ranks in the |c=1> half apply the
		// unitary locally; the rest idle. No communication at all —
		// the reason control-qubit placement matters for comm volume.
		if d.rankBit(c) == 1 {
			d.st.ApplyMat1(t, m)
		}
		return nil
	case !cGlobal && tGlobal:
		// Target is a rank bit: exchange, then update only amplitudes
		// whose local control bit is set.
		partner := d.comm.Rank() ^ 1<<uint(t-d.local)
		theirs := d.exchange(partner)
		amps := d.st.Amplitudes()
		cmask := uint64(1) << uint(c)
		if d.rankBit(t) == 0 {
			for i := range amps {
				if uint64(i)&cmask != 0 {
					amps[i] = m[0]*amps[i] + m[1]*theirs[i]
				}
			}
		} else {
			for i := range amps {
				if uint64(i)&cmask != 0 {
					amps[i] = m[2]*theirs[i] + m[3]*amps[i]
				}
			}
		}
		return nil
	default:
		// Both global: ranks whose control bit is 1 pair-exchange over
		// the target bit; ranks with control 0 idle.
		if d.rankBit(c) == 0 {
			return nil
		}
		partner := d.comm.Rank() ^ 1<<uint(t-d.local)
		theirs := d.exchange(partner)
		amps := d.st.Amplitudes()
		if d.rankBit(t) == 0 {
			for i := range amps {
				amps[i] = m[0]*amps[i] + m[1]*theirs[i]
			}
		} else {
			for i := range amps {
				amps[i] = m[2]*theirs[i] + m[3]*amps[i]
			}
		}
		return nil
	}
}

// applyDiagonal applies a diagonal/phase gate with zero communication
// at any operand placement: a rank-index bit is constant across the
// whole shard, so a diagonal factor on it collapses to one scalar
// (chosen by this rank's bit) multiplied into the resident amplitudes
// — where the naive path would pay a full pairwise buffer exchange.
// Each skipped exchange is counted in AvoidedExchanges. The arithmetic
// is exactly the per-gate path's (multiplying by the same factors the
// dense 2×2 would, whose off-diagonal terms are exact zeros), so this
// is bit-identical to exchanging.
func (d *DistState) applyDiagonal(g gate.Type, qubits []int, params []float64) error {
	if g.Arity() == 1 {
		q := qubits[0]
		if !d.isGlobal(q) {
			d.st.ApplyDiagonalGate(g, qubits, params)
			return nil
		}
		m := gate.Matrix1(g, params)
		f := m[0]
		if d.rankBit(q) == 1 {
			f = m[3]
		}
		d.scale(f)
		d.avoidedExch++
		return nil
	}
	// cz / cp: phase on the |c=1,t=1> subspace.
	c, t := qubits[0], qubits[1]
	if c == t {
		return fmt.Errorf("mgpu: control equals target %d", c)
	}
	phase := complex128(-1)
	if g == gate.CP {
		phase = gate.Matrix1(gate.P, params)[3]
	}
	cGlobal, tGlobal := d.isGlobal(c), d.isGlobal(t)
	switch {
	case !cGlobal && !tGlobal:
		d.st.ApplyControlledPhase(c, t, phase)
	case cGlobal && !tGlobal:
		// Control on a rank bit was already communication-free.
		if d.rankBit(c) == 1 {
			d.st.ApplyPhase1(t, phase)
		}
	case !cGlobal && tGlobal:
		// The naive path exchanges here; the rank-bit phase does not.
		if d.rankBit(t) == 1 {
			d.st.ApplyPhase1(c, phase)
		}
		d.avoidedExch++
	default:
		// Both on rank bits: at most one scalar multiply per rank. The
		// naive path exchanged on the |c=1> ranks only.
		if d.rankBit(c) == 1 {
			d.avoidedExch++
			if d.rankBit(t) == 1 {
				d.scale(phase)
			}
		}
	}
	return nil
}

// scale multiplies every resident amplitude by f (a rank-constant
// diagonal factor). Multiplying by an exact 1 is skipped.
func (d *DistState) scale(f complex128) {
	if f == 1 {
		return
	}
	amps := d.st.Amplitudes()
	for i := range amps {
		amps[i] *= f
	}
}

// ApplyFused applies a fused unitary if all its qubits are local;
// distributed executors transform kernels with fusion restricted to
// local qubits (or disabled) before running.
func (d *DistState) ApplyFused(qubits []int, m []complex128) error {
	for _, q := range qubits {
		if d.isGlobal(q) {
			return fmt.Errorf("mgpu: fused op touches global qubit %d; refuse fusion across device boundaries", q)
		}
	}
	return d.st.ApplyFused(qubits, m)
}

// Norm returns the global 2-norm (allreduced; identical on all ranks).
func (d *DistState) Norm() float64 {
	var local float64
	for _, a := range d.st.Amplitudes() {
		local += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(d.comm.Allreduce(local, mpi.OpSum))
}

// Probabilities gathers the global |αi|² vector at root (rank 0);
// other ranks receive nil. Rank order equals amplitude order because
// rank bits are the top index bits.
func (d *DistState) Probabilities() []float64 {
	return d.comm.GatherFloat64s(0, d.st.Probabilities())
}

// pollCancel decides a cancellation check collectively. Ranks share
// one flag object, but deadline polls read per-rank clocks, so at the
// expiry boundary rank A can conclude "expired" while its partner B —
// a few nanoseconds behind — has already entered a blocking pairwise
// Exchange with A; A abandoning the run would strand B forever (the
// mpi shim, like real MPI, has no cross-rank cancellation). An
// Allreduce(max) over the local verdicts makes every rank act on the
// same decision at the same SPMD point: either all ranks continue or
// all ranks stop, and no exchange is ever left half-entered. A nil
// flag costs nothing (and is SPMD-consistent: all ranks share it).
func (d *DistState) pollCancel(flag *cancel.Flag) error {
	if flag == nil {
		return nil
	}
	v := 0.0
	err := flag.Err()
	if err != nil {
		v = 1
	}
	if d.comm.Allreduce(v, mpi.OpMax) == 0 {
		return nil
	}
	if err == nil {
		// Another rank crossed the deadline boundary first; resolve the
		// local error now (it is at most nanoseconds away).
		if err = flag.Err(); err == nil {
			err = cancel.ErrDeadline
		}
	}
	return err
}

// ExecuteKernel runs a kernel's instruction stream on the distributed
// state.
func (d *DistState) ExecuteKernel(k *kernel.Kernel) error {
	return d.ExecuteKernelCancel(k, nil)
}

// cancelPollInstrs is how many per-gate instructions run between
// collective cancellation polls on the distributed per-gate path — the
// poll is an Allreduce, so it is rationed more coarsely than a local
// atomic load would be.
const cancelPollInstrs = 16

// ExecuteKernelCancel is ExecuteKernel with a cooperative cancellation
// flag, polled collectively every cancelPollInstrs instructions.
func (d *DistState) ExecuteKernelCancel(k *kernel.Kernel, flag *cancel.Flag) error {
	if k.NumQubits != d.n {
		return fmt.Errorf("mgpu: kernel %q wants %d qubits, state has %d", k.Name, k.NumQubits, d.n)
	}
	for i, in := range k.Instrs {
		var err error
		if i%cancelPollInstrs == 0 {
			if err = d.pollCancel(flag); err != nil {
				return fmt.Errorf("mgpu: instr %d: %w", i, err)
			}
		}
		switch in.Kind {
		case kernel.KGate:
			err = d.ApplyGate(in.Gate, in.Qubits, in.Params)
		case kernel.KFused:
			err = d.ApplyFused(in.Qubits, in.Mat)
		case kernel.KMeasure, kernel.KBarrier:
		default:
			err = fmt.Errorf("unknown instr kind %d", in.Kind)
		}
		if err != nil {
			return fmt.Errorf("mgpu: instr %d: %w", i, err)
		}
	}
	return nil
}

// Result is what SimulateKernel/SimulateCompiled return at root.
type Result struct {
	Probabilities []float64
	Exchanges     int   // total pairwise exchanges across all ranks
	BytesSent     int64 // total bytes shipped between ranks
	// AvoidedExchanges counts exchanges the naive per-gate baseline
	// would have performed but this run resolved locally (rank-bit
	// diagonal phases) or absorbed into a batched exchange segment.
	AvoidedExchanges int
	// ExchangeTime is the root rank's cumulative exchange wait — a
	// representative (SPMD-symmetric) communication share of the run's
	// wall clock, not a cross-rank sum (ranks exchange concurrently).
	ExchangeTime time.Duration
	Norm         float64
}

// simulate spawns nRanks device ranks, runs exec on each shard, and
// gathers probabilities plus communication counters at root.
func simulate(numQubits, nRanks, workersPerRank int, exec func(*DistState) error) (*Result, error) {
	res := &Result{}
	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		d, err := NewDist(c, numQubits, workersPerRank)
		if err != nil {
			return err
		}
		if err := exec(d); err != nil {
			return err
		}
		norm := d.Norm()
		probs := d.Probabilities()
		ex := c.Reduce(0, float64(d.Exchanges()), mpi.OpSum)
		by := c.Reduce(0, float64(d.BytesSent()), mpi.OpSum)
		av := c.Reduce(0, float64(d.AvoidedExchanges()), mpi.OpSum)
		if c.Rank() == 0 {
			res.Probabilities = probs
			res.Norm = norm
			res.Exchanges = int(ex)
			res.BytesSent = int64(by)
			res.AvoidedExchanges = int(av)
			res.ExchangeTime = d.ExchangeTime()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// SimulateKernel runs the kernel gate-by-gate on nRanks simulated
// devices and returns the gathered result. It wraps mpi.Run, so it is
// a single-call entry point; the 'nvidia-mgpu' backend target routes
// through SimulateCompiled, which executes a compiled TilePlan when
// one exists and falls back to this per-gate path otherwise.
func SimulateKernel(k *kernel.Kernel, nRanks, workersPerRank int) (*Result, error) {
	return simulate(k.NumQubits, nRanks, workersPerRank, func(d *DistState) error {
		return d.ExecuteKernel(k)
	})
}
