// Package backend exposes the execution targets of the paper's
// pipeline behind one interface, mirroring the CUDA-Q target strings
// the paper sets on the command line (§E.3):
//
//   - "aer"         — the Qiskit-Aer-on-CPU baseline: the same engine
//     forced serial (one worker, no fusion), the slow path of Fig. 4a;
//   - "nvidia"      — one simulated GPU: the parallel sharded engine
//     with gate fusion, the fast path of Fig. 4a;
//   - "nvidia-mgpu" — pooled device memory over MPI ranks
//     (internal/mgpu), the capacity-extending path;
//   - "nvidia-mqpu" — devices used as independent QPUs for
//     circuit-level parallelism (§3's four-QPU note);
//   - "pennylane"   — the lightning.gpu-like baseline: same parallel
//     engine plus the per-gate high-level→kernel transpilation latency
//     §4 identifies as Pennylane's overhead.
package backend

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"qgear/internal/cancel"
	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/kernel"
	"qgear/internal/mgpu"
	"qgear/internal/qmath"
	"qgear/internal/sampling"
	"qgear/internal/statevec"
	"qgear/internal/telemetry"
)

// Target names an execution backend.
type Target string

// The supported targets.
const (
	TargetAer        Target = "aer"
	TargetNvidia     Target = "nvidia"
	TargetNvidiaMGPU Target = "nvidia-mgpu"
	TargetNvidiaMQPU Target = "nvidia-mqpu"
	TargetPennylane  Target = "pennylane"
)

// Targets lists every supported target.
func Targets() []Target {
	return []Target{TargetAer, TargetNvidia, TargetNvidiaMGPU, TargetNvidiaMQPU, TargetPennylane}
}

// Valid reports whether t is a known target.
func (t Target) Valid() bool {
	switch t {
	case TargetAer, TargetNvidia, TargetNvidiaMGPU, TargetNvidiaMQPU, TargetPennylane:
		return true
	}
	return false
}

// Config selects and tunes a target.
type Config struct {
	Target Target
	// Devices is the simulated device count for mgpu/mqpu targets
	// (must be a power of two for mgpu). Default 1.
	Devices int
	// Workers is the goroutine parallelism per device; 0 selects
	// NumCPU for GPU-class targets and 1 for aer.
	Workers int
	// Shots samples measurement outcomes from the final state; 0
	// returns probabilities only.
	Shots int
	// Seed drives shot sampling.
	Seed uint64
	// FusionWindow forwards to the kernel transformation (GPU-class
	// targets only; aer runs unfused like Aer's default path here).
	FusionWindow int
	// PruneAngle forwards to the kernel transformation.
	PruneAngle float64
	// TileBits selects the cache-blocked tiled executor: runs of gates
	// whose mixing operands sit below 2^TileBits amplitudes apply to
	// L2-resident tiles in one memory pass per run instead of one per
	// gate, with SWAPs absorbed into a qubit relabeling table. The
	// tiled path is bit-identical to the per-gate path. 0 selects
	// kernel.AutoTileBits (cache-geometry detected at startup, env
	// QGEAR_TILE_BITS override) on GPU-class targets and leaves aer on
	// the per-gate baseline; negative disables tiling everywhere;
	// positive forces that tile width on any target.
	TileBits int
	// PlanFusion enables within-run fusion in the plan compiler:
	// adjacent same-target single-qubit gates pre-multiply into one
	// micro-op. Off (the default) keeps planned execution
	// arithmetic-identical to the per-gate path; on trades exactness
	// at the ~1e-15 rounding level for fewer in-tile multiplies.
	PlanFusion bool
	// Cancel, when non-nil, is a cooperative cancellation flag the
	// executors poll at work boundaries (tile run, exchange segment,
	// Pauli-reduction block pair): a tripped flag stops the run with
	// the flag's error. Nil runs unbounded. Cancel never shapes the output of a run that
	// completes, so it is excluded from option signatures and cache
	// keys.
	Cancel *cancel.Flag
	// ExecHook, when non-nil, runs at the start of every execution
	// (RunCompiled / RunExpectationCompiled), before any state is
	// allocated. It exists for fault injection: chaos tests panic or
	// delay here to exercise the serving layer's isolation without
	// touching the engines. Like Cancel, it never shapes a completed
	// run's output and stays out of signatures.
	ExecHook func()
}

// execHook fires the injection point if one is configured.
func (c Config) execHook() {
	if c.ExecHook != nil {
		c.ExecHook()
	}
}

// pennylaneTranspileReps models the per-gate latency of Pennylane's
// high-level-to-kernel translation (§4): each gate's matrix is
// re-derived this many times before execution, making the overhead
// real work proportional to gate count rather than a timer sleep. The
// count is calibrated to ~1 ms per gate — the order of Python-object
// lowering the paper's diagnosis implies.
const pennylaneTranspileReps = 12000

// Result carries everything a run produces.
type Result struct {
	Target        Target
	Probabilities []float64
	Counts        sampling.Counts
	Duration      time.Duration
	// NumQubits is the simulated register width. Expectation results
	// carry no probability vector, so the width is recorded explicitly
	// (probability results record it too; older persisted artifacts may
	// leave it 0, in which case it is inferred from the vector length).
	NumQubits int
	// ExpValue is the exact ⟨H⟩ of an expectation job (RunExpectation);
	// nil on probability/sampling runs.
	ExpValue *float64
	// ExpTerms is the number of Pauli terms the expectation evaluated.
	ExpTerms int
	// SweepValues is the per-point ⟨H⟩ vector of a Hamiltonian sweep
	// (RunSweep with an observable), in point order; nil otherwise.
	SweepValues []float64
	// SweepCounts is the per-point sampled histogram of a sampling
	// sweep (RunSweep without an observable, Shots > 0); nil otherwise.
	SweepCounts []sampling.Counts
	// SweepPoints is the number of parameter points a sweep (or
	// gradient) job evaluated; 0 on non-sweep runs.
	SweepPoints int
	// Rebinds counts sweep points served by rebinding the compiled
	// plan; SweepCompiles counts points that needed a full per-point
	// compile (fusion/pruning configurations). Their sum is SweepPoints
	// on sweep runs.
	Rebinds       int
	SweepCompiles int
	// Gradient is the parameter-shift gradient ∂⟨H⟩/∂θ of a gradient
	// job, one entry per parameter slot; nil otherwise. ExpValue then
	// carries ⟨H⟩ at the base point.
	Gradient []float64
	// KernelStats reports the circuit→kernel transformation.
	KernelStats kernel.Stats
	// PlanStats reports what the plan compiler did (tile runs, global
	// fallbacks, fused micro-ops, exchange segments); nil when the run
	// took the per-gate path.
	PlanStats *kernel.PlanStats
	// TileBits is the effective tile width the run executed with; 0 on
	// the per-gate path.
	TileBits int
	// Exchanges/BytesSent/AvoidedExchanges are the mgpu communication
	// counters (zero for single-device targets): exchanges paid, bytes
	// shipped, and exchanges the per-gate baseline would have paid
	// that this run resolved locally or batched away.
	Exchanges        int
	BytesSent        int64
	AvoidedExchanges int
	// Trace is the per-stage timing breakdown of the run (execute,
	// readout, sample, ... — see the telemetry.Stage* constants). The
	// service layer prepends its own spans (queue wait, plan-cache
	// resolution) and returns the whole trace in /v1/results; spans are
	// sequential, so their sum never exceeds Duration plus the serving
	// overhead. Not persisted: a store-loaded result carries a fresh
	// store_load span instead.
	Trace *telemetry.Trace
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	if c.Target == TargetAer {
		return 1
	}
	return runtime.NumCPU()
}

func (c Config) devices() int {
	if c.Devices > 0 {
		return c.Devices
	}
	return 1
}

// tileBits resolves the tiled-executor policy: explicit widths win,
// negative disables, and the zero default enables tiling on GPU-class
// targets while keeping aer on the per-gate sweep baseline (the same
// way aer keeps fusion off). The auto width comes from the cache
// geometry detected at startup.
func (c Config) tileBits() int {
	switch {
	case c.TileBits > 0:
		return c.TileBits
	case c.TileBits < 0:
		return 0
	case c.Target == TargetAer:
		return 0
	default:
		return kernel.AutoTileBits()
	}
}

// EffectiveTileBits is the tile width this configuration actually
// executes with once the auto policy is resolved (0 = per-gate path).
// Persistence layers sign artifacts with this, not the raw TileBits
// knob: a "0 = auto" setting resolves differently across machines and
// QGEAR_TILE_BITS environments, and with PlanFusion enabled a
// different effective width changes run boundaries and therefore
// rounding — so artifacts must not be trusted across that divide.
func (c Config) EffectiveTileBits() int { return c.tileBits() }

// globalBits is the rank-index bit count of the distributed target (0
// on single-device targets).
func (c Config) globalBits() int {
	if c.Target != TargetNvidiaMGPU {
		return 0
	}
	return int(qmath.Log2Ceil(uint64(c.devices())))
}

// transformOptions lowers the config to circuit→kernel transform
// options for a circuit of n qubits.
func (c Config) transformOptions(n int) kernel.Options {
	opts := kernel.Options{PruneAngle: c.PruneAngle}
	switch c.Target {
	case TargetAer:
		// Aer baseline: no fusion, serial; the kernel transformation
		// still runs (Q-GEAR converts regardless; the target decides
		// execution).
	case TargetNvidiaMGPU:
		opts.FusionWindow = c.FusionWindow
		opts.FusionLocalQubits = n - c.globalBits()
	default:
		opts.FusionWindow = c.FusionWindow
	}
	return opts
}

// Compiled is a circuit lowered all the way to the execution IR: the
// transformed kernel plus its compiled TilePlan (nil when the target
// runs per-gate). A Compiled is immutable and safe to execute
// concurrently — the service layer caches them across submissions so
// repeat work skips transformation and planning entirely.
type Compiled struct {
	Kernel *kernel.Kernel
	// Plan is the compiled execution schedule; nil selects the
	// per-gate executor (aer, disabled tiling, or a state too small to
	// tile).
	Plan *kernel.TilePlan
	// TransformStats reports the circuit→kernel conversion.
	TransformStats kernel.Stats
	// TileBits is the plan's effective tile width (0 when Plan is nil).
	TileBits int
}

// Compile transforms a circuit for the configured target and compiles
// its execution plan, without running anything.
func Compile(c *circuit.Circuit, cfg Config) (*Compiled, error) {
	if !cfg.Target.Valid() {
		return nil, fmt.Errorf("backend: unknown target %q", cfg.Target)
	}
	k, stats, err := kernel.FromCircuit(c, cfg.transformOptions(c.NumQubits))
	if err != nil {
		return nil, err
	}
	comp, err := compileKernel(k, cfg)
	if err != nil {
		return nil, err
	}
	comp.TransformStats = stats
	return comp, nil
}

// compileKernel plans an already-transformed kernel. States too small
// to tile fall back to the per-gate executor (nil plan); real planning
// failures surface as errors.
func compileKernel(k *kernel.Kernel, cfg Config) (*Compiled, error) {
	comp := &Compiled{Kernel: k}
	tb := cfg.tileBits()
	if tb <= 0 {
		return comp, nil
	}
	plan, err := kernel.Plan(k, kernel.PlanConfig{
		TileBits:   tb,
		GlobalBits: cfg.globalBits(),
		FuseRuns:   cfg.PlanFusion,
	})
	if err != nil {
		if errors.Is(err, kernel.ErrNoTiling) {
			return comp, nil
		}
		return nil, err
	}
	comp.Plan = plan
	comp.TileBits = plan.TileBits
	return comp, nil
}

// Run transforms the circuit for the configured target and executes it
// — Compile followed by RunCompiled.
func Run(c *circuit.Circuit, cfg Config) (*Result, error) {
	comp, err := Compile(c, cfg)
	if err != nil {
		return nil, err
	}
	return RunCompiled(comp, cfg)
}

// RunKernel executes an already-transformed kernel, planning it on the
// fly.
func RunKernel(k *kernel.Kernel, cfg Config) (*Result, error) {
	if !cfg.Target.Valid() {
		return nil, fmt.Errorf("backend: unknown target %q", cfg.Target)
	}
	comp, err := compileKernel(k, cfg)
	if err != nil {
		return nil, err
	}
	return RunCompiled(comp, cfg)
}

// RunCompiled executes a compiled circuit. Every engine consumes the
// same plan: the single-process statevec executor runs it directly,
// the distributed engine runs it against each rank shard, and a nil
// plan selects the per-gate baseline on either.
func RunCompiled(comp *Compiled, cfg Config) (*Result, error) {
	if !cfg.Target.Valid() {
		return nil, fmt.Errorf("backend: unknown target %q", cfg.Target)
	}
	start := time.Now()
	res := &Result{Target: cfg.Target, KernelStats: comp.TransformStats, TileBits: comp.TileBits, NumQubits: comp.Kernel.NumQubits}
	if comp.Plan != nil {
		stats := comp.Plan.Stats
		res.PlanStats = &stats
	}
	tr := &telemetry.Trace{}
	cfg.execHook()

	switch cfg.Target {
	case TargetNvidiaMGPU:
		t0 := time.Now()
		out, err := mgpu.SimulateCompiledCancel(comp.Kernel, comp.Plan, cfg.devices(), cfg.workers(), cfg.Cancel)
		if err != nil {
			return nil, err
		}
		res.Probabilities = out.Probabilities
		res.Exchanges = out.Exchanges
		res.BytesSent = out.BytesSent
		res.AvoidedExchanges = out.AvoidedExchanges
		addDistSpans(tr, time.Since(t0), out.ExchangeTime)
	case TargetPennylane:
		t0 := time.Now()
		pennylaneTranspile(comp.Kernel)
		tr.Add(telemetry.StageTranspile, time.Since(t0))
		probs, err := runSingleTraced(comp, cfg.workers(), tr, cfg.Cancel)
		if err != nil {
			return nil, err
		}
		res.Probabilities = probs
	default: // aer, nvidia, and mqpu-with-one-circuit all run the local engine
		probs, err := runSingleTraced(comp, cfg.workers(), tr, cfg.Cancel)
		if err != nil {
			return nil, err
		}
		res.Probabilities = probs
	}

	if cfg.Shots > 0 {
		t0 := time.Now()
		counts, err := sampleShots(res.Probabilities, cfg)
		if err != nil {
			return nil, err
		}
		res.Counts = counts
		tr.Add(telemetry.StageSample, time.Since(t0))
	}
	res.Duration = time.Since(start)
	res.Trace = tr
	return res, nil
}

// addDistSpans splits a distributed execution's wall time into compute
// and exchange spans. The exchange share is the root rank's measured
// wait; it is clamped below the whole so the span sum stays an exact
// partition of the measured wall time.
func addDistSpans(tr *telemetry.Trace, wall, exchange time.Duration) {
	if exchange > 0 && exchange < wall {
		tr.Add(telemetry.StageExchange, exchange)
		wall -= exchange
	}
	tr.Add(telemetry.StageExecute, wall)
}

// SampleShots draws measurement shots from an already-computed
// probability vector exactly as RunKernel would for cfg — including
// the mqpu split-across-devices path — so schedulers that defer
// sampling (the service layer) still match a standalone Run bit for
// bit.
func SampleShots(probs []float64, cfg Config) (sampling.Counts, error) {
	return sampleShots(probs, cfg)
}

// sampleShots draws measurement shots. On the mqpu target the shot
// budget is split across the simulated QPUs and sampled concurrently —
// the multi-shot parallelism of the paper's ref. [23] (and the reason
// §3 notes mqpu "significantly improves the execution time"); results
// merge into one Counts and stay deterministic under a fixed seed.
func sampleShots(probs []float64, cfg Config) (sampling.Counts, error) {
	devices := cfg.devices()
	if cfg.Target != TargetNvidiaMQPU || devices <= 1 || cfg.Shots < devices {
		return sampling.Sample(probs, cfg.Shots, qmath.NewRNG(cfg.Seed))
	}
	per := cfg.Shots / devices
	rem := cfg.Shots % devices
	parts := make([]sampling.Counts, devices)
	errs := make([]error, devices)
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		shots := per
		if d < rem {
			shots++
		}
		wg.Add(1)
		go func(d, shots int) {
			defer wg.Done()
			parts[d], errs[d] = sampling.Sample(probs, shots, qmath.NewRNG(cfg.Seed+uint64(d)*0x9e3779b9))
		}(d, shots)
	}
	wg.Wait()
	merged := make(sampling.Counts)
	for d := 0; d < devices; d++ {
		if errs[d] != nil {
			return nil, errs[d]
		}
		for k, v := range parts[d] {
			merged[k] += v
		}
	}
	return merged, nil
}

// runSingleTraced executes a compiled circuit on one in-memory device,
// through the plan when one was compiled (bit-identical output either
// way), recording execute and readout spans into tr.
func runSingleTraced(comp *Compiled, workers int, tr *telemetry.Trace, flag *cancel.Flag) ([]float64, error) {
	t0 := time.Now()
	s, err := runSingleState(comp, workers, flag)
	if err != nil {
		return nil, err
	}
	tr.Add(telemetry.StageExecute, time.Since(t0))
	t1 := time.Now()
	probs := s.Probabilities()
	tr.Add(telemetry.StageReadout, time.Since(t1))
	return probs, nil
}

// runSingleState executes a compiled circuit and returns the resident
// state itself — possibly with a pending qubit permutation, which the
// expectation reduction materializes once before its first term.
func runSingleState(comp *Compiled, workers int, flag *cancel.Flag) (*statevec.State, error) {
	s, err := statevec.New(comp.Kernel.NumQubits, workers)
	if err != nil {
		return nil, err
	}
	if comp.Plan != nil {
		err = comp.Plan.ExecuteCancel(s, flag)
	} else {
		err = kernel.ExecuteCancel(comp.Kernel, s, flag)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// pennylaneTranspile burns the per-gate translation cost §4 describes:
// every gate's unitary is re-derived pennylaneTranspileReps times, the
// moral equivalent of re-lowering a Python object per invocation.
func pennylaneTranspile(k *kernel.Kernel) {
	sink := complex(0, 0)
	for _, in := range k.Instrs {
		if in.Kind != kernel.KGate || !in.Gate.IsUnitary() {
			continue
		}
		for rep := 0; rep < pennylaneTranspileReps; rep++ {
			switch in.Gate.Arity() {
			case 1:
				m := gate.Matrix1(in.Gate, in.Params)
				sink += m[0]
			case 2:
				m := gate.Matrix2(in.Gate, in.Params)
				sink += m[0]
			}
		}
	}
	_ = sink
}

// RunBatch executes a batch of circuits: compile each, then execute
// the compiled batch.
func RunBatch(circuits []*circuit.Circuit, cfg Config) ([]*Result, error) {
	comps := make([]*Compiled, len(circuits))
	for i, c := range circuits {
		comp, err := Compile(c, cfg)
		if err != nil {
			return nil, fmt.Errorf("backend: circuit %d: %w", i, err)
		}
		comps[i] = comp
	}
	return RunBatchCompiled(comps, cfg)
}

// RunBatchCompiled executes a batch of compiled circuits. On the mqpu
// target the batch is spread across cfg.Devices simulated QPUs running
// concurrently (the §3 four-QPU mode); every other target runs
// sequentially. Plans compiled under the mqpu target are valid on the
// per-device engine — both are single-process plan consumers.
func RunBatchCompiled(comps []*Compiled, cfg Config) ([]*Result, error) {
	if cfg.Target != TargetNvidiaMQPU {
		out := make([]*Result, len(comps))
		for i, comp := range comps {
			r, err := RunCompiled(comp, cfg)
			if err != nil {
				return nil, fmt.Errorf("backend: circuit %d: %w", i, err)
			}
			out[i] = r
		}
		return out, nil
	}

	devices := cfg.devices()
	// Split worker budget across concurrently running devices.
	perDev := cfg
	perDev.Target = TargetNvidia
	if w := cfg.workers() / devices; w > 0 {
		perDev.Workers = w
	} else {
		perDev.Workers = 1
	}
	out := make([]*Result, len(comps))
	errs := make([]error, len(comps))
	sem := make(chan struct{}, devices)
	var wg sync.WaitGroup
	for i, comp := range comps {
		wg.Add(1)
		go func(i int, comp *Compiled) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cfgi := perDev
			cfgi.Seed = cfg.Seed + uint64(i)
			r, err := RunCompiled(comp, cfgi)
			out[i], errs[i] = r, err
			if r != nil {
				r.Target = TargetNvidiaMQPU
			}
		}(i, comp)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("backend: circuit %d: %w", i, err)
		}
	}
	return out, nil
}
