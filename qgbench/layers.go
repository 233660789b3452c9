package main

import (
	"errors"
	"fmt"
	"time"

	"qgear/internal/circuit"
	"qgear/internal/kernel"
	"qgear/internal/mgpu"
	"qgear/internal/observable"
	"qgear/internal/qmath"
	"qgear/internal/sampling"
	"qgear/internal/statevec"
)

// The traced run replays each job through the layers' public functions
// in the order the backend calls them, timing every call as a span:
//
//	kernel.FromCircuit → kernel.Plan → [kernel.TilePlan.Bind] →
//	statevec.New → statevec.TilePlan.Execute → statevec.Probabilities →
//	sampling.Sample | observable.Hamiltonian.Expectation
//
// and mgpu.SimulateCompiled for the distributed engine. The replay must
// reproduce the public API's output bit for bit; the workloads check it.

// layerAcc accumulates what the replayed calls did, for the per-layer
// metrics.
type layerAcc struct {
	transform, plan, bind, newState, execute, readout, sample, reduce time.Duration
	mgpuRun, mgpuWait                                                 time.Duration

	transforms, plans, binds, executes, readouts, samples, reductions, mgpuRuns int

	emitted, fused int
	stats          kernel.PlanStats
	passes         int
	execBytes      float64 // computed: 2 (read+write) × 16 B × 2^n per pass
	gateUpdates    float64 // gates × 2^n
	shots          int
	terms          int
	reduceBytes    float64 // computed: 16 B × 2^n per Pauli term
	permPending    int
	exchanges      int
	bytesSent      int64

	// speedup probe: one plan executed at workers=1 and workers=nproc.
	w1, wN time.Duration
}

// tracer replays jobs layer by layer into a recorder.
type tracer struct {
	rec *recorder
	acc layerAcc
}

// compiled is a replayed compile: the kernel and its plan (nil on the
// per-gate path).
type compiled struct {
	k    *kernel.Kernel
	plan *kernel.TilePlan
}

// compile runs kernel.FromCircuit and kernel.Plan with the options the
// backend derives for a target (globalBits > 0 for the mgpu engine).
func (t *tracer) compile(job, parent int, c *circuit.Circuit, kopts kernel.Options, globalBits int) (*compiled, error) {
	out := &compiled{}
	var st kernel.Stats
	d, err := timed(func() error {
		return t.rec.do("kernel.FromCircuit", parent, job, func(int) error {
			var err error
			out.k, st, err = kernel.FromCircuit(c, kopts)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	t.acc.transform += d
	t.acc.transforms++
	t.acc.emitted += st.EmittedOps
	t.acc.fused += st.FusedGroups
	d, err = timed(func() error {
		return t.rec.do("kernel.Plan", parent, job, func(int) error {
			p, err := kernel.Plan(out.k, kernel.PlanConfig{TileBits: kernel.AutoTileBits(), GlobalBits: globalBits})
			if errors.Is(err, kernel.ErrNoTiling) {
				return nil
			}
			out.plan = p
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	t.acc.plan += d
	t.acc.plans++
	if out.plan != nil {
		s := out.plan.Stats
		t.acc.stats.Runs += s.Runs
		t.acc.stats.Global += s.Global
		t.acc.stats.BitSwaps += s.BitSwaps
		t.acc.stats.PermSwaps += s.PermSwaps
		t.acc.stats.ExchangeSegs += s.ExchangeSegs
	}
	return out, nil
}

// bind rebinds a compiled circuit to a parameter point the way
// backend.Compiled.BindParams does.
func (t *tracer) bind(job, parent int, comp *compiled, params []float64) (*compiled, error) {
	out := &compiled{}
	d, err := timed(func() error {
		return t.rec.do("kernel.TilePlan.Bind", parent, job, func(int) error {
			var err error
			if out.k, err = comp.k.Bind(params); err != nil {
				return err
			}
			if comp.plan != nil {
				out.plan, err = comp.plan.Bind(params)
			}
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	t.acc.bind += d
	t.acc.binds++
	return out, nil
}

// passes is the number of full read+write sweeps over the state one
// execution makes: tile runs, full-sweep fallbacks and relabel bit
// swaps on the tiled path, one per gate on the per-gate path.
func (comp *compiled) passes() int {
	if comp.plan == nil {
		return comp.k.NumGates()
	}
	s := comp.plan.Stats
	return s.Runs + s.Global + s.BitSwaps
}

// execute allocates a state and runs the compiled circuit on it.
func (t *tracer) execute(job, parent int, comp *compiled, workers int) (*statevec.State, error) {
	n := comp.k.NumQubits
	var s *statevec.State
	d, err := timed(func() error {
		return t.rec.do("statevec.New", parent, job, func(int) error {
			var err error
			s, err = statevec.New(n, workers)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	t.acc.newState += d
	d, err = timed(func() error {
		return t.rec.do("statevec.TilePlan.Execute", parent, job, func(int) error {
			if comp.plan != nil {
				return comp.plan.Execute(s)
			}
			return kernel.Execute(comp.k, s)
		})
	})
	if err != nil {
		return nil, err
	}
	amps := float64(uint64(1) << uint(n))
	t.acc.execute += d
	t.acc.executes++
	t.acc.passes += comp.passes()
	t.acc.execBytes += float64(comp.passes()) * 2 * 16 * amps
	t.acc.gateUpdates += float64(comp.k.NumGates()) * amps
	for q, p := range s.Permutation() {
		if q != p {
			t.acc.permPending++
		}
	}
	return s, nil
}

// speedupProbe executes comp once at one worker and once at nproc
// workers, outside the per-layer totals.
func (t *tracer) speedupProbe(job int, comp *compiled, nproc int) error {
	run := func(workers int) (time.Duration, error) {
		s, err := statevec.New(comp.k.NumQubits, workers)
		if err != nil {
			return 0, err
		}
		var d time.Duration
		err = t.rec.do(fmt.Sprintf("statevec.Execute.workers%d", workers), 0, job, func(int) error {
			var err error
			d, err = timed(func() error {
				if comp.plan != nil {
					return comp.plan.Execute(s)
				}
				return kernel.Execute(comp.k, s)
			})
			return err
		})
		return d, err
	}
	var err error
	if t.acc.w1, err = run(1); err != nil {
		return err
	}
	t.acc.wN, err = run(nproc)
	return err
}

// readout reads the probability vector (materializing any pending
// permutation).
func (t *tracer) readout(job, parent int, s *statevec.State) []float64 {
	var probs []float64
	d, _ := timed(func() error {
		return t.rec.do("statevec.Probabilities", parent, job, func(int) error {
			probs = s.Probabilities()
			return nil
		})
	})
	t.acc.readout += d
	t.acc.readouts++
	return probs
}

// sample draws shots exactly as backend.RunCompiled does on a
// single-device target.
func (t *tracer) sample(job, parent int, probs []float64, shots int, seed uint64) (sampling.Counts, error) {
	var counts sampling.Counts
	d, err := timed(func() error {
		return t.rec.do("sampling.Sample", parent, job, func(int) error {
			var err error
			counts, err = sampling.Sample(probs, shots, qmath.NewRNG(seed))
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	t.acc.sample += d
	t.acc.samples++
	t.acc.shots += shots
	return counts, nil
}

// reduce evaluates ⟨H⟩ on the resident state.
func (t *tracer) reduce(job, parent int, h *observable.Hamiltonian, s *statevec.State) (float64, error) {
	var v float64
	d, err := timed(func() error {
		return t.rec.do("observable.Hamiltonian.Expectation", parent, job, func(int) error {
			var err error
			v, err = h.Expectation(s)
			return err
		})
	})
	if err != nil {
		return 0, err
	}
	t.acc.reduce += d
	t.acc.reductions++
	t.acc.terms += len(h.Terms)
	t.acc.reduceBytes += float64(len(h.Terms)) * 16 * float64(uint64(1)<<uint(s.NumQubits()))
	return v, nil
}

// simulate replays a single-device simulate job: execute, readout and,
// with shots, sampling.
func (t *tracer) simulate(job, parent int, comp *compiled, workers, shots int, seed uint64) ([]float64, sampling.Counts, error) {
	s, err := t.execute(job, parent, comp, workers)
	if err != nil {
		return nil, nil, err
	}
	probs := t.readout(job, parent, s)
	if shots == 0 {
		return probs, nil, nil
	}
	counts, err := t.sample(job, parent, probs, shots, seed)
	return probs, counts, err
}

// expectation replays a single-device expectation job.
func (t *tracer) expectation(job, parent int, comp *compiled, h *observable.Hamiltonian, workers int) (float64, error) {
	s, err := t.execute(job, parent, comp, workers)
	if err != nil {
		return 0, err
	}
	return t.reduce(job, parent, h, s)
}

// mgpuSimulate replays an nvidia-mgpu simulate job.
func (t *tracer) mgpuSimulate(job, parent int, comp *compiled, ranks, workersPerRank, shots int, seed uint64) (*mgpu.Result, sampling.Counts, error) {
	var res *mgpu.Result
	d, err := timed(func() error {
		return t.rec.do("mgpu.SimulateCompiled", parent, job, func(int) error {
			var err error
			res, err = mgpu.SimulateCompiled(comp.k, comp.plan, ranks, workersPerRank)
			return err
		})
	})
	if err != nil {
		return nil, nil, err
	}
	t.acc.mgpuRun += d
	t.acc.mgpuRuns++
	t.acc.mgpuWait += res.ExchangeTime
	t.acc.exchanges += res.Exchanges
	t.acc.bytesSent += res.BytesSent
	counts, err := t.sample(job, parent, res.Probabilities, shots, seed)
	return res, counts, err
}

// sweep replays a compile-once sweep: one compile, then per point a
// rebind, an execution and a reduction.
func (t *tracer) sweep(job, parent int, c *circuit.Circuit, h *observable.Hamiltonian, points [][]float64, workers int) ([]float64, error) {
	comp, err := t.compile(job, parent, c, kernel.Options{}, 0)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(points))
	for i, p := range points {
		bound, err := t.bind(job, parent, comp, p)
		if err != nil {
			return nil, err
		}
		if vals[i], err = t.expectation(job, parent, bound, h, workers); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// layerMetrics turns the accumulated calls into per-layer metrics.
func (b *bench) layerMetrics(t *tracer) {
	a := &t.acc
	bw := b.host.TriadGBps
	gbps := func(bytes float64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return bytes / d.Seconds() / 1e9
	}
	frac := func(g float64) float64 {
		if bw <= 0 {
			return 0
		}
		return g / bw
	}
	// A layer the workload never called reports 0 with n=0 ("none").
	add := func(name string, v float64, unit, stat string, n int) {
		if n == 0 {
			v, stat = 0, "none"
		}
		b.layerAdd(valueMetric(name, v, unit, stat, n))
	}
	add("kernel.transform_s", secs(a.transform), "s", "sum", a.transforms)
	add("kernel.plan_s", secs(a.plan), "s", "sum", a.plans)
	add("kernel.emitted_instrs", float64(a.emitted), "count", "sum", a.transforms)
	add("kernel.fused_groups", float64(a.fused), "count", "sum", a.transforms)
	add("kernel.tile_runs", float64(a.stats.Runs), "count", "sum", a.plans)
	add("kernel.global_sweeps", float64(a.stats.Global), "count", "sum", a.plans)
	add("kernel.bit_swaps", float64(a.stats.BitSwaps), "count", "sum", a.plans)
	add("kernel.perm_swaps", float64(a.stats.PermSwaps), "count", "sum", a.plans)
	add("kernel.exchange_segs", float64(a.stats.ExchangeSegs), "count", "sum", a.plans)
	add("kernel.bind_s", secs(a.bind), "s", "sum", a.binds)
	add("statevec.new_s", secs(a.newState), "s", "sum", a.executes)
	add("statevec.execute_s", secs(a.execute), "s", "sum", a.executes)
	add("statevec.passes", float64(a.passes), "count", "sum", a.executes)
	add("statevec.execute_bytes", a.execBytes, "B", "computed", a.executes)
	eg := gbps(a.execBytes, a.execute)
	add("statevec.execute_gbps", eg, "GB/s", "computed", a.executes)
	add("statevec.execute_bw_frac", frac(eg), "frac", "computed", a.executes)
	add("statevec.gate_updates_per_s", a.gateUpdates/secs(a.execute), "1/s", "computed", a.executes)
	add("statevec.perm_pending", float64(a.permPending), "count", "sum", a.executes)
	if a.w1 > 0 && a.wN > 0 {
		add("statevec.speedup_at_nproc", secs(a.w1)/secs(a.wN), "x", fmt.Sprintf("t(w=1)/t(w=%d)", b.nproc), 2)
	}
	add("statevec.readout_s", secs(a.readout), "s", "sum", a.readouts)
	add("sampling.sample_s", secs(a.sample), "s", "sum", a.samples)
	add("sampling.shots_per_s", float64(a.shots)/secs(a.sample), "1/s", "computed", a.samples)
	og := gbps(a.reduceBytes, a.reduce)
	add("observable.reduce_s", secs(a.reduce), "s", "sum", a.reductions)
	add("observable.terms", float64(a.terms), "count", "sum", a.reductions)
	add("observable.term_ms", ms(a.reduce)/float64(a.terms), "ms", "mean", a.terms)
	add("observable.gbps", og, "GB/s", "computed", a.reductions)
	add("observable.bw_frac", frac(og), "frac", "computed", a.reductions)
	add("mgpu.run_s", secs(a.mgpuRun), "s", "sum", a.mgpuRuns)
	add("mgpu.exchange_wait_s", secs(a.mgpuWait), "s", "sum", a.mgpuRuns)
	add("mgpu.exchanges", float64(a.exchanges), "count", "sum", a.mgpuRuns)
	add("mgpu.bytes_sent", float64(a.bytesSent), "B", "sum", a.mgpuRuns)
	add("mgpu.exchange_gbps", gbps(float64(a.bytesSent), a.mgpuWait), "GB/s", "computed", a.mgpuRuns)
}
