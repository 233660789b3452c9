package mgpu

import (
	"fmt"
	"math/bits"
	"time"

	"qgear/internal/cancel"
	"qgear/internal/kernel"
	"qgear/internal/mpi"
	"qgear/internal/observable"
	"qgear/internal/statevec"
)

// Distributed observable estimation: every rank executes the compiled
// plan (or the per-gate kernel) on its shard, materializes any pending
// plan permutation once, then evaluates the Hamiltonian against the
// *resident* shard amplitudes — no probability gather — in one
// block-major pass per Hamiltonian; per-term summation order
// unchanged. The canonical reduction of statevec's expectation
// contract makes rank partials exact subtrees of the single-device
// reduction, so the gathered value is bit-identical to the local
// engines (for up to 2^4 ranks, the reserve the chunk width
// guarantees).
//
// Rank-index bits of a term resolve per rank with zero communication:
// a Z factor on a rank bit is a constant sign, a pure-rank-bit Z
// string selects which ranks sit in the odd-parity subspace at all.
// Every term without X/Y factors on rank bits joins the rank's one
// grouped pass. Only X/Y factors on rank bits move data — one pairwise
// buffer exchange per such term (partner = rank XOR the term's global
// flip mask), after which each rank holds both members of every
// amplitude pair it owns and evaluates that term alone. Per-term rank
// partials are gathered once at root: rank-local partial sums plus a
// single reduction.

// ExpResult is what ExpectationKernel/ExpectationCompiled return at
// root.
type ExpResult struct {
	Value float64
	Terms int
	// Communication counters, summed over ranks (plan execution plus
	// the expectation exchanges for rank-bit X/Y factors).
	Exchanges        int
	BytesSent        int64
	AvoidedExchanges int
	// ExchangeTime is the root rank's cumulative exchange wait (plan
	// execution plus expectation-term exchanges), wall-clock
	// representative rather than a cross-rank sum.
	ExchangeTime time.Duration
}

// termSpec is one term's SPMD-identical classification: every rank
// (and the root combiner) derives scheduling from the same masks.
type termSpec struct {
	coef     float64
	xm       uint64
	ym       uint64
	zm       uint64
	flip     uint64
	pivot    int // absolute qubit position of the pairing/parity pivot
	identity bool
}

// buildTermSpecs validates the Hamiltonian against the register and
// precomputes each term's masks and pivot, before any rank spawns.
func buildTermSpecs(h *observable.Hamiltonian, n int) ([]termSpec, error) {
	if h == nil {
		return nil, fmt.Errorf("mgpu: nil hamiltonian")
	}
	specs := make([]termSpec, len(h.Terms))
	for i, t := range h.Terms {
		xm, ym, zm, err := t.Masks(n)
		if err != nil {
			return nil, fmt.Errorf("mgpu: term %d: %w", i, err)
		}
		sp := termSpec{coef: t.Coef, xm: xm, ym: ym, zm: zm, flip: xm | ym}
		switch {
		case sp.flip != 0:
			sp.pivot = bits.TrailingZeros64(sp.flip)
		case zm != 0:
			sp.pivot = bits.TrailingZeros64(zm)
		default:
			sp.identity = true
		}
		specs[i] = sp
	}
	return specs, nil
}

// shardArgs lowers a term onto this rank's shard: local masks, the
// rank bits folded into the flip phase or the Z parity, and the pivot's
// local position (−1 when it is a rank bit).
func (d *DistState) shardArgs(sp termSpec) statevec.PauliShardArgs {
	lmask := uint64(1)<<uint(d.local) - 1
	rank := uint64(d.comm.Rank())
	args := statevec.PauliShardArgs{
		XMask:     sp.xm & lmask,
		YMask:     sp.ym & lmask,
		ZMask:     sp.zm & lmask,
		Pivot:     -1,
		ChunkBits: statevec.ExpChunkBits(d.n),
	}
	if sp.pivot < d.local {
		args.Pivot = sp.pivot
	}
	if sp.flip != 0 {
		args.Flip = true
		ph := statevec.IPow(bits.OnesCount64(sp.ym))
		if bits.OnesCount64(rank&((sp.ym|sp.zm)>>uint(d.local)))&1 == 1 {
			ph = -ph
		}
		args.Phase0 = ph
		return args
	}
	// Pure-Z term: rank bits contribute parity, never data movement. A
	// string wholly on rank bits leaves this shard wholly inside or
	// outside the odd-parity subspace (rankParticipates decides).
	args.ParityBase = bits.OnesCount64(rank&(sp.zm>>uint(d.local))) & 1
	return args
}

// exchangeTermPartial computes this rank's tree-reduced partial for a
// term with X/Y factors on rank bits: one pairwise exchange serves
// every pair of the term, then a one-term pass. Ranks that own no
// slice of the term's enumeration still take part in the exchange
// (their partner needs the buffer) and return 0.
func (d *DistState) exchangeTermPartial(sp termSpec) float64 {
	args := d.shardArgs(sp)
	args.Partner = d.exchange(d.comm.Rank() ^ int(sp.flip>>uint(d.local)))
	if !rankParticipates(sp, d.comm.Rank(), d.local) {
		return 0 // the pivot-0 partner owns these pairs
	}
	v, _ := d.st.Shard(args)
	return v
}

// rankParticipates reports whether rank r owns a block of the term's
// canonical enumeration. Ranks use it to schedule their passes and the
// root to assemble block partials in compact-index order.
func rankParticipates(sp termSpec, r, local int) bool {
	if sp.identity {
		return false
	}
	if sp.pivot < local {
		return true
	}
	if sp.flip != 0 {
		return r>>uint(sp.pivot-local)&1 == 0
	}
	return bits.OnesCount64(uint64(r)&(sp.zm>>uint(local)))&1 == 1
}

// combineExpectation finishes the reduction at root: for each term,
// tree-reduce the participating ranks' block partials (ascending rank
// order is ascending compact order — see the participation analysis
// above), convert odd-parity mass to 1 − 2·S for pure-Z strings, and
// accumulate coefficient-weighted values in term order — the exact
// expression sequence the single-device evaluator runs.
func combineExpectation(specs []termSpec, all []float64, ranks, local int) float64 {
	nTerms := len(specs)
	blocks := make([]float64, 0, ranks)
	var total float64
	for ti, sp := range specs {
		if sp.identity {
			total += sp.coef * 1
			continue
		}
		blocks = blocks[:0]
		for r := 0; r < ranks; r++ {
			if rankParticipates(sp, r, local) {
				blocks = append(blocks, all[r*nTerms+ti])
			}
		}
		s := statevec.TreeSum(blocks)
		if sp.flip == 0 {
			total += sp.coef * (1 - 2*s)
		} else {
			total += sp.coef * s
		}
	}
	return total
}

// ExpectationCompiled executes the compiled plan (or, when plan is
// nil, the per-gate kernel) on nRanks simulated devices and evaluates
// ⟨H⟩ against the resident shards: rank-local partial sums, one
// gather, bit-identical to the single-device engines for up to
// 2^4 = 16 ranks (the reserve statevec.ExpChunkBits bakes into the
// canonical chunk width). Beyond 16 ranks the value is still exact to
// normal floating-point accuracy, but shard blocks may be smaller
// than one canonical chunk, so the reduction tree — and therefore the
// last ulp — can differ from the single-device engines.
func ExpectationCompiled(k *kernel.Kernel, plan *kernel.TilePlan, h *observable.Hamiltonian, nRanks, workersPerRank int) (*ExpResult, error) {
	return ExpectationCompiledCancel(k, plan, h, nRanks, workersPerRank, nil)
}

// ExpectationCompiledCancel is ExpectationCompiled with a cooperative
// cancellation flag: polled collectively during plan/kernel execution,
// locally per block pair of the grouped pass and collectively right
// after it, and collectively per term with rank-bit X/Y factors (those
// pay a pairwise exchange, so every rank must agree before one starts).
func ExpectationCompiledCancel(k *kernel.Kernel, plan *kernel.TilePlan, h *observable.Hamiltonian, nRanks, workersPerRank int, flag *cancel.Flag) (*ExpResult, error) {
	specs, err := buildTermSpecs(h, k.NumQubits)
	if err != nil {
		return nil, err
	}
	res := &ExpResult{Terms: len(specs)}
	err = mpi.Run(nRanks, func(c *mpi.Comm) error {
		d, err := NewDist(c, k.NumQubits, workersPerRank)
		if err != nil {
			return err
		}
		if plan != nil {
			err = d.ExecutePlanCancel(plan, flag)
		} else {
			err = d.ExecuteKernelCancel(k, flag)
		}
		if err != nil {
			return err
		}
		// Materialize the shard once, before the pass: every term and
		// every exchange then reads the canonical layout.
		d.st.MaterializePerm()
		partials := make([]float64, len(specs))
		var group []statevec.PauliShardArgs
		var slots, exch []int
		for ti, sp := range specs {
			switch {
			case sp.flip>>uint(d.local) != 0:
				exch = append(exch, ti)
			case rankParticipates(sp, c.Rank(), d.local):
				group = append(group, d.shardArgs(sp))
				slots = append(slots, ti)
			}
		}
		vals, _, gerr := d.st.ShardGroup(group, flag.Err)
		// A pass stopped locally has tripped the flag for good, so the
		// collective poll fails on every rank alike.
		if err := d.pollCancel(flag); err != nil {
			return fmt.Errorf("mgpu: expectation: %w", err)
		}
		if gerr != nil {
			return gerr
		}
		for k, ti := range slots {
			partials[ti] = vals[k]
		}
		for _, ti := range exch {
			if err := d.pollCancel(flag); err != nil {
				return fmt.Errorf("mgpu: expectation term %d: %w", ti, err)
			}
			partials[ti] = d.exchangeTermPartial(specs[ti])
		}
		all := c.GatherFloat64s(0, partials)
		ex := c.Reduce(0, float64(d.Exchanges()), mpi.OpSum)
		by := c.Reduce(0, float64(d.BytesSent()), mpi.OpSum)
		av := c.Reduce(0, float64(d.AvoidedExchanges()), mpi.OpSum)
		if c.Rank() == 0 {
			res.Value = combineExpectation(specs, all, c.Size(), d.local)
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

// ExpectationKernel is ExpectationCompiled on the per-gate path.
func ExpectationKernel(k *kernel.Kernel, h *observable.Hamiltonian, nRanks, workersPerRank int) (*ExpResult, error) {
	return ExpectationCompiled(k, nil, h, nRanks, workersPerRank)
}
