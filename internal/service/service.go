// Package service is the simulation serving layer on top of the
// Q-GEAR pipeline: a bounded job queue feeding a worker pool that
// executes circuits through internal/core on a configured
// backend.Target, fronted by a content-addressed LRU result cache.
//
// Three mechanisms let it serve high submission rates without
// re-simulating work:
//
//   - content addressing: every job is keyed by core.CacheKey (circuit
//     fingerprint + output-affecting options); completed results are
//     cached and identical resubmissions are served instantly;
//   - single-flight: concurrent submissions of the same key attach to
//     the one in-flight execution instead of queueing duplicates;
//   - batch coalescing: a worker draining the queue gathers up to
//     MaxBatch compatible jobs and executes them in one core.Run call,
//     exploiting the nvidia-mqpu device-parallel path.
//
// Shot sampling is performed per job from the batch-computed
// probability vector with the job's own seed, so coalesced execution
// is bit-identical to running each job alone (see TestBatchMatchesSequential).
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qgear/internal/backend"
	"qgear/internal/cancel"
	"qgear/internal/circuit"
	"qgear/internal/core"
	"qgear/internal/faultfs"
	"qgear/internal/observable"
	"qgear/internal/store"
	"qgear/internal/telemetry"
)

// Version identifies the serving layer in /v1/healthz and the
// qgear_build_info metric.
const Version = "0.8.0"

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// Execution options applied to every job (the server owns the
	// target; jobs own circuit, shots, and seed).
	Target       backend.Target // default nvidia (nvidia-mqpu when Devices > 1)
	Devices      int            // simulated device count, default 1
	Workers      int            // per-device goroutine parallelism, 0 = NumCPU
	FusionWindow int            // forwarded to the kernel transform
	PruneAngle   float64        // forwarded to the kernel transform
	TileBits     int            // tiled-executor tile width (see core.Options.TileBits)
	PlanFusion   bool           // within-run 1q fusion in the plan compiler

	// QueueSize bounds the job queue; Submit fails with ErrQueueFull
	// beyond it. Default 256.
	QueueSize int
	// WorkerPool is the number of executor goroutines. Default 2.
	WorkerPool int
	// CacheSize bounds the result cache's entry count; < 0 disables
	// caching. Default 1024. Resident memory is governed by
	// MaxCacheBytes — every entry is byte-accounted (a 2^n probability
	// vector is 8·2^n bytes) and evicted cost-per-byte-aware, so the
	// entry bound is a secondary limit. Retained finished jobs
	// (MaxRetainedJobs) share the cached result pointers, so they do
	// not duplicate that memory.
	CacheSize int
	// MaxCacheBytes bounds the result cache's resident bytes. Default
	// 1 GiB; < 0 removes the byte bound (entry bound only). Evicted
	// entries spill to the persistent store when StoreDir is set.
	MaxCacheBytes int64
	// PlanCacheSize bounds the compiled-plan cache's entry count,
	// keyed by (circuit fingerprint, tile width): repeat submissions
	// of a known circuit — even with different shots or seeds — skip
	// transformation and plan compilation entirely. Plans are shared
	// read-only across workers. Default 512; < 0 disables.
	PlanCacheSize int
	// MaxPlanCacheBytes bounds the plan cache's resident bytes
	// (TilePlan segment arrays are byte-accounted like results).
	// Default 256 MiB; < 0 removes the byte bound.
	MaxPlanCacheBytes int64
	// StoreDir enables the persistent artifact store: evicted and
	// shutdown-time cache entries are written there (results as HDF5
	// datasets keyed by core.CacheKey, compiled plans as binary
	// sidecars), and a restarting server warm-starts from it — repeat
	// fingerprints are answered from disk, bit-identically, without
	// re-simulating. Empty disables persistence.
	StoreDir string
	// MaxStoreBytes bounds the store's on-disk footprint: saves evict
	// the lowest-priority artifacts (Greedy-Dual-Size, same policy as
	// the in-memory caches) or are refused, so the directory can never
	// outgrow the budget. 0 = unbounded. Ignored without StoreDir.
	MaxStoreBytes int64
	// MaxBatch caps how many queued jobs one worker coalesces into a
	// single core.Run call. Default 8; 1 disables coalescing.
	MaxBatch int
	// BatchWindow is how long a worker waits for more queued jobs
	// before executing a partial batch. Default 2ms.
	BatchWindow time.Duration
	// MaxRetainedJobs bounds the finished-job table consulted by
	// polling clients; the oldest finished jobs are forgotten beyond
	// it. Default 4096.
	MaxRetainedJobs int
	// MaxSweepPoints bounds one sweep job's point count — the admission
	// control of the per-point artifact a sweep accumulates. Default
	// 65536; < 0 removes the bound.
	MaxSweepPoints int
	// MaxWaitMs bounds the long-poll budget a GET /v1/jobs/{id}?wait_ms=N
	// request may ask for; larger values are clamped, not rejected.
	// Default 30000.
	MaxWaitMs int

	// JobTimeout bounds every job's lifetime from submission: a job
	// still queued past it is dropped at dequeue without executing, and
	// a running job is cooperatively cancelled at its next poll point
	// (tile run, exchange segment, Pauli-reduction block pair). Per-job
	// SubmitOptions.TimeoutMs tightens this further; single-flight
	// joiners can only loosen the budget their leader already runs
	// under. 0 = no server-wide timeout.
	JobTimeout time.Duration
	// MaxStateBytes is the memory-admission budget: Submit rejects any
	// circuit whose simulation working set (statevector + readout, plus
	// exchange buffers on the mgpu target) would exceed it, with
	// ErrTooLarge and zero allocation. 0 selects half of the machine's
	// available RAM (4 GiB when that cannot be determined); < 0
	// disables admission control.
	MaxStateBytes int64
	// StoreFS overrides the filesystem the persistent store runs on —
	// the chaos harness's fault-injection seam. Nil selects the real
	// filesystem. Ignored without StoreDir.
	StoreFS faultfs.FS
	// ExecHook, when non-nil, fires at the start of every backend
	// execution. Chaos tests panic or stall here to drive the panic-
	// isolation and deadline machinery; production leaves it nil.
	ExecHook func()
}

func (c Config) withDefaults() Config {
	if c.Target == "" {
		if c.Devices > 1 {
			c.Target = backend.TargetNvidiaMQPU
		} else {
			c.Target = backend.TargetNvidia
		}
	}
	if c.Devices <= 0 {
		c.Devices = 1
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.WorkerPool <= 0 {
		c.WorkerPool = 2
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 512
	}
	if c.MaxCacheBytes == 0 {
		c.MaxCacheBytes = 1 << 30 // 1 GiB
	} else if c.MaxCacheBytes < 0 {
		c.MaxCacheBytes = 0 // unbounded
	}
	if c.MaxPlanCacheBytes == 0 {
		c.MaxPlanCacheBytes = 256 << 20 // 256 MiB
	} else if c.MaxPlanCacheBytes < 0 {
		c.MaxPlanCacheBytes = 0
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxRetainedJobs <= 0 {
		c.MaxRetainedJobs = 4096
	}
	if c.MaxSweepPoints == 0 {
		c.MaxSweepPoints = 65536
	} else if c.MaxSweepPoints < 0 {
		c.MaxSweepPoints = 0 // unbounded
	}
	if c.MaxWaitMs <= 0 {
		c.MaxWaitMs = 30000
	}
	if c.MaxStateBytes == 0 {
		c.MaxStateBytes = defaultMaxStateBytes()
	} else if c.MaxStateBytes < 0 {
		c.MaxStateBytes = 0 // admission control disabled
	}
	return c
}

// JobState is the lifecycle phase of a submitted job.
type JobState string

// Job lifecycle states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// SubmitOptions are the per-job knobs (everything else is server
// configuration).
type SubmitOptions struct {
	// Shots samples measurement outcomes; 0 returns probabilities only.
	Shots int
	// Seed drives shot sampling (ignored, and normalized to zero in
	// the cache key, when Shots == 0).
	Seed uint64
	// Hamiltonian selects an expectation-value job: the server
	// evaluates the exact ⟨H⟩ on the circuit's final state instead of
	// probabilities or counts. Expectation jobs are exact, so Shots
	// must be 0. Results are cached and persisted under
	// (circuit fingerprint, hamiltonian hash, option signature).
	Hamiltonian *observable.Hamiltonian
	// TimeoutMs bounds this job's lifetime in milliseconds from
	// submission, on top of (never beyond) the server's JobTimeout:
	// the effective budget is the tighter of the two. 0 applies the
	// server default only.
	TimeoutMs int
	// SweepPoints selects a sweep job: the circuit is treated as a
	// parameterized skeleton (its own parameter values are irrelevant)
	// and evaluated at every point — each a flat vector with one value
	// per parameter slot, program order. With a Hamiltonian the
	// artifact is the exact per-point ⟨H⟩ vector (Shots must be 0);
	// without one Shots must be > 0 and the artifact is the per-point
	// sampled histogram, point i seeded with
	// backend.SweepPointSeed(Seed, i). Under a rebindable server
	// configuration the whole sweep costs one compile: every point is a
	// rebind of the structurally-cached plan.
	SweepPoints [][]float64
	// Gradient selects a parameter-shift gradient job: exact ∂⟨H⟩/∂θ at
	// the circuit's own parameter values, evaluated as a derived
	// 2k+1-point sweep. Requires Hamiltonian; SweepPoints must be
	// empty.
	Gradient bool
}

// JobInfo is a point-in-time snapshot of one job.
type JobInfo struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Cached is true when the job was served without a fresh
	// simulation: a result-cache hit or a single-flight join.
	Cached      bool      `json:"cached"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	// FinishedAt is nil while the job is queued or running (a pointer
	// because encoding/json's omitempty cannot elide a zero time.Time).
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// Service errors.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrClosed    = errors.New("service: server closed")
	ErrNotFound  = errors.New("service: no such job")
	ErrNotDone   = errors.New("service: job not finished")
	// ErrTooLarge rejects a submission at admission control: the
	// circuit's simulation working set exceeds MaxStateBytes. Mapped to
	// HTTP 422 — resubmitting the same circuit can never succeed.
	ErrTooLarge = errors.New("service: circuit exceeds memory budget")
	// ErrDeadlineExceeded classifies a job that ran out of its time
	// budget — dropped at dequeue or cooperatively cancelled mid-run.
	// Mapped to HTTP 504 on the results surface.
	ErrDeadlineExceeded = errors.New("service: job deadline exceeded")
	// ErrPanic classifies a job whose execution panicked. The panic is
	// recovered at the execution boundary: the job (and its
	// single-flight joiners) fail with this error, the worker survives,
	// and qgear_panics_recovered_total increments.
	ErrPanic = errors.New("service: execution panicked")
)

// job is the internal job record. The leader of each cache key is the
// only copy that enters the queue; identical concurrent submissions
// attach to it (single-flight) and share its outcome.
type job struct {
	id   string
	key  string
	fp   string // circuit fingerprint (groups batch members sharing a state)
	circ *circuit.Circuit
	ham  *observable.Hamiltonian // non-nil selects an expectation job
	opts SubmitOptions

	state       JobState
	cached      bool
	result      *backend.Result
	err         error
	submittedAt time.Time
	finishedAt  time.Time
	done        chan struct{}
	// flag is the leader's cancellation flag, shared with the execution
	// engines; nil on jobs served without executing (cache hits) and on
	// single-flight joiners, which ride their leader's flag instead.
	flag *cancel.Flag
}

func (j *job) info() JobInfo {
	in := JobInfo{
		ID:          j.id,
		State:       j.state,
		Cached:      j.cached,
		SubmittedAt: j.submittedAt,
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		in.FinishedAt = &t
	}
	if j.err != nil {
		in.Error = j.err.Error()
	}
	return in
}

// flight tracks one in-flight cache key and every job attached to it.
// The leader's cancel flag doubles as the flight's time budget: joiners
// Extend it (deadlines only ever loosen — a second submission of a
// running key must not tighten what the leader already executes under).
type flight struct {
	jobs []*job
}

// flightFlag returns the flight's shared cancellation flag (the
// leader's); nil-safe for flights without one.
func (f *flight) flag() *cancel.Flag {
	if f == nil || len(f.jobs) == 0 {
		return nil
	}
	return f.jobs[0].flag
}

// Server is the simulation service. Create with New, submit with
// Submit, stop with Close (which drains in-flight work and spills
// resident cache entries to the persistent store when one is
// configured).
type Server struct {
	cfg    Config
	start  time.Time
	store  *store.Store // nil without StoreDir
	cfgSig string       // normalized option signature stamped on store artifacts
	// rebindable records whether the execution configuration keeps
	// compiled structure value-independent (no fusion, no pruning) —
	// the gate for structural plan-cache keying and the sweep
	// compile-once fast path. Fixed at New.
	rebindable bool
	spill      chan spillItem
	// reg is the server's metric registry: every counter below is
	// exported through it (as a callback reading the same field, so
	// /metrics and /v1/stats can never disagree), job and stage
	// latencies are registry histograms, and Handler mounts its
	// Prometheus exposition at /metrics.
	reg *telemetry.Registry
	// busy counts workers currently executing a batch. Atomic (not
	// under mu) so the utilization gauge never contends with the
	// serving path.
	busy atomic.Int64

	mu          sync.Mutex
	closed      bool
	nextID      uint64
	jobs        map[string]*job
	doneOrder   []string // finished job ids, oldest first (retention)
	inflight    map[string]*flight
	cache       *resultCache
	plans       *planCache
	planFlights map[string]chan struct{} // plan keys being compiled right now
	// pendingSpills is the spill lookaside window: entries evicted from
	// a cache stay answerable here until the spiller has them durably
	// on disk, so an eviction immediately followed by a repeat
	// submission never re-simulates.
	pendingSpills map[string]spillItem
	queue         chan *job
	wg            sync.WaitGroup
	loadWG        sync.WaitGroup // in-flight store loads
	spillWG       sync.WaitGroup // the spiller goroutine
	spillBytes    int64          // bytes pinned by the eviction-spill backlog

	// counters (under mu)
	submitted, completed, failed  uint64
	cacheHits, sfHits, executed   uint64
	expSubmitted, expExecuted     uint64
	sweepSubmitted, sweepExecuted uint64
	sweepPointsRun                uint64
	gradSubmitted, gradExecuted   uint64
	planHits, planMisses          uint64
	planRebinds                   uint64
	storeHits, planStoreHits      uint64
	storeMisses, storeErrors      uint64
	storeSpills, storeSpillDrops  uint64
	storeQuarantines              uint64
	storeAdmissionSkips           uint64
	batches, batchedJobs          uint64
	panicsRecovered               uint64
	rejectedQueueFull             uint64
	rejectedTooLarge              uint64
	rejectedInvalid               uint64
	cancelledQueue                uint64 // expired before execution started
	cancelledRunning              uint64 // cancelled mid-execution
	cacheEvictedBytes             int64
	planEvictedBytes              int64
	mgpuExchanges, mgpuAvoided    uint64
	mgpuBytesSent                 int64
	latency                       map[string]*telemetry.Histogram

	// stageLatency holds the per-stage registry histograms, resolved
	// once at registerMetrics time and read-only afterwards, so the
	// per-span hot path (observeStages, the spiller) never takes the
	// registry lock or allocates a label map.
	stageLatency map[string]*telemetry.Histogram
	// storeLoad measures successful result loads from the persistent
	// store; its observed median is the measured-admission bar a
	// result's modeled recompute cost must clear to be worth
	// persisting at all.
	storeLoad *telemetry.Histogram
}

// spillItem is one artifact bound for the persistent store: exactly
// one of result and plan is set. bytes is the entry's accounted size
// while it waits in the backlog (0 for shutdown-time items, which
// bypass the budget).
type spillItem struct {
	key    string
	result *backend.Result
	plan   *backend.Compiled
	cost   float64
	bytes  int64
}

// spillQueueDepth bounds the eviction-spill backlog's entry count; the
// backlog is additionally byte-bounded (spillByteBudget) because the
// entries it pins live entirely outside the cache's byte budget. When
// either bound is hit, eviction spills are dropped (and counted)
// rather than stalling the serving path — the shutdown spill still
// persists whatever is resident.
const spillQueueDepth = 256

// spillBudget sizes the backlog's byte bound from the result cache's
// budget: a quarter of it, floored so small test configurations can
// still spill at all, and defaulted when the cache is unbounded.
func spillBudget(maxCacheBytes int64) int64 {
	b := maxCacheBytes / 4
	if b < 16<<20 {
		b = 16 << 20 // 16 MiB floor (also the unbounded-cache default)
	}
	return b
}

// New starts a server with cfg's worker pool running.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if !cfg.Target.Valid() {
		return nil, fmt.Errorf("service: unknown target %q", cfg.Target)
	}
	if cfg.Target == backend.TargetNvidiaMGPU && cfg.Devices&(cfg.Devices-1) != 0 {
		// mgpu pools device memory over a hypercube; reject up front
		// rather than failing every job at runtime.
		return nil, fmt.Errorf("service: nvidia-mgpu needs a power-of-two device count, got %d", cfg.Devices)
	}
	s := &Server{
		cfg:         cfg,
		start:       time.Now(),
		jobs:        make(map[string]*job),
		inflight:    make(map[string]*flight),
		cache:       store.NewCache[*backend.Result](cfg.CacheSize, cfg.MaxCacheBytes),
		plans:       store.NewCache[*backend.Compiled](cfg.PlanCacheSize, cfg.MaxPlanCacheBytes),
		planFlights: make(map[string]chan struct{}),
		queue:       make(chan *job, cfg.QueueSize),
		reg:         telemetry.NewRegistry(),
		latency:     make(map[string]*telemetry.Histogram),
	}
	s.registerMetrics()
	opts := s.execOptions()
	s.cfgSig = opts.StoreSignature()
	s.rebindable = opts.Rebindable()
	if cfg.StoreDir != "" {
		ast, err := store.OpenOptions(cfg.StoreDir, store.Options{FS: cfg.StoreFS, MaxBytes: cfg.MaxStoreBytes})
		if err != nil {
			return nil, err
		}
		s.store = ast
		s.spill = make(chan spillItem, spillQueueDepth)
		s.pendingSpills = make(map[string]spillItem)
		s.spillWG.Add(1)
		go s.spiller()
	}
	for i := 0; i < cfg.WorkerPool; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// spiller drains eviction- and shutdown-time artifacts to the
// persistent store off the serving path. Saves are idempotent, so
// spilling an entry that warm-started from disk is a no-op.
func (s *Server) spiller() {
	defer s.spillWG.Done()
	for it := range s.spill {
		var err error
		t0 := time.Now()
		if it.result != nil {
			err = s.store.SaveResult(it.key, s.cfgSig, it.result)
		} else {
			err = s.store.SavePlan(it.key, s.cfgSig, it.plan, it.cost)
		}
		// Spills run off the serving path, so the stage appears in the
		// registry histograms but never in a job trace.
		s.stageHist(telemetry.StageSpill).Observe(time.Since(t0))
		s.mu.Lock()
		if err != nil {
			s.storeErrors++
		} else {
			s.storeSpills++
		}
		s.spillBytes -= it.bytes
		if cur, ok := s.pendingSpills[it.key]; ok && cur.result == it.result && cur.plan == it.plan {
			delete(s.pendingSpills, it.key)
		}
		s.mu.Unlock()
	}
}

// minAdmissionSamples is how many store loads must have been measured
// before the measured-admission rule activates; below it every result
// is persisted (cold stores should fill, not starve).
const minAdmissionSamples = 32

// admitResultSpill applies measured admission: once enough store
// loads have been observed, a result whose modeled recompute cost
// (its recorded simulation time) is below the observed median load
// latency is cheaper to re-simulate than to read back, so persisting
// it would only burn disk budget and GC pressure. Shutdown-time
// spills bypass this (Close writes the spill channel directly):
// post-restart the cache is empty and even cheap results are wins.
func (s *Server) admitResultSpill(res *backend.Result) bool {
	d := s.storeLoad.Snapshot()
	if d.N < minAdmissionSamples || res.Duration <= 0 {
		return true
	}
	// Median from the bucket histogram: the upper bound of the first
	// bucket holding the middle observation.
	var cum uint64
	median := telemetry.BucketBoundSeconds(telemetry.HistogramBuckets)
	for i, c := range d.Counts {
		cum += c
		if cum*2 >= d.N {
			median = telemetry.BucketBoundSeconds(i)
			break
		}
	}
	return res.Duration.Seconds() >= median
}

// enqueueSpillLocked hands an artifact to the spiller without ever
// blocking the serving path. Callers hold s.mu.
func (s *Server) enqueueSpillLocked(it spillItem) {
	if s.spill == nil {
		return
	}
	if it.result != nil && !s.admitResultSpill(it.result) {
		s.storeAdmissionSkips++
		return
	}
	if s.spillBytes > 0 && s.spillBytes+it.bytes > spillBudget(s.cfg.MaxCacheBytes) {
		// The backlog already pins its byte budget of unaccounted
		// memory; shedding keeps -max-cache-bytes an honest bound on
		// the process, at the cost of re-simulating this key if it is
		// asked for after a restart. An empty backlog always admits one
		// entry, so even over-budget artifacts eventually persist.
		s.storeSpillDrops++
		return
	}
	select {
	case s.spill <- it:
		s.spillBytes += it.bytes
		s.pendingSpills[it.key] = it
	default:
		s.storeSpillDrops++
	}
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// execOptions lowers the server configuration to pipeline options for
// a probabilities-only run; per-job shots are sampled afterwards.
func (s *Server) execOptions() core.Options {
	return core.Options{
		FusionWindow: s.cfg.FusionWindow,
		PruneAngle:   s.cfg.PruneAngle,
		TileBits:     s.cfg.TileBits,
		PlanFusion:   s.cfg.PlanFusion,
		Target:       s.cfg.Target,
		Devices:      s.cfg.Devices,
		Workers:      s.cfg.Workers,
	}
}

// execOptionsCancel is execOptions armed for a real execution: the
// job's cancellation flag and the configured fault-injection hook.
// Neither field enters option signatures or cache keys (they never
// shape a completed run's output), so key derivation keeps using the
// bare execOptions.
func (s *Server) execOptionsCancel(flag *cancel.Flag) core.Options {
	o := s.execOptions()
	o.Cancel = flag
	o.ExecHook = s.cfg.ExecHook
	return o
}

// planKey addresses the compiled-plan cache. Everything else that
// shapes a plan (target, devices, fusion, prune, plan fusion) is
// server-constant, so a circuit identity plus the configured tile
// width identifies the artifact. Under a rebindable configuration —
// where compiled structure is provably value-independent — a
// parameterized circuit keys by its *structural* fingerprint: every
// submission sharing a shape, whatever its angles, resolves to one
// cached skeleton that compiled() rebinds to the job's own values. A
// 10k-point sweep (or 10k individually-submitted points) therefore
// costs exactly one compile. Value-dependent configurations (fusion,
// pruning) keep exact-fingerprint keying.
func (s *Server) planKey(c *circuit.Circuit, fp string) string {
	if s.rebindable && c.NumParams() > 0 {
		return fmt.Sprintf("%s|b%d", c.StructuralFingerprint(), s.cfg.TileBits)
	}
	return fmt.Sprintf("%s|b%d", fp, s.cfg.TileBits)
}

// compiled returns the circuit's execution IR, serving repeat
// fingerprints from the plan cache so resubmissions — including ones
// with different shots or seeds, which miss the result cache — skip
// transformation and plan compilation entirely. Compiled plans are
// immutable and safe to execute concurrently. Concurrent misses for
// one key single-flight: workers that lose the race wait for the
// winner's plan instead of compiling the same circuit again.
//
// The returned trace fragment breaks the call's own wall time into a
// fresh compile span, a persistent-store load span, a rebind span
// (structural-key hits only), and a plan_cache span covering
// everything else (lookup, single-flight waits, spill lookaside) — so
// a cache hit shows pure plan_cache time while a cold miss shows
// mostly compile.
//
// Under structural keying (see planKey) the cached artifact is a
// *skeleton*: its structure matches every circuit sharing the shape,
// but its value-derived matrices carry whatever parameter values
// first populated the key. Every serving path that did not compile
// from this job's own circuit — cache hit, spill lookaside, store
// load — therefore rebinds the skeleton to c's parameter values
// before returning; only a fresh compile is already bound.
func (s *Server) compiled(c *circuit.Circuit, fp string) (*backend.Compiled, *telemetry.Trace, error) {
	t0 := time.Now()
	structural := s.rebindable && c.NumParams() > 0
	key := s.planKey(c, fp)
	s.mu.Lock()
	for {
		if comp, ok := s.plans.Get(key); ok {
			s.planHits++
			s.mu.Unlock()
			return s.rebound(comp, c, structural, t0, 0, 0)
		}
		if it, ok := s.pendingSpills[key]; ok && it.plan != nil {
			// Spill lookaside: an evicted plan still bound for disk is
			// an ordinary cache hit (it never touched the store) —
			// serve it and re-admit.
			comp := it.plan
			s.planHits++
			for _, ev := range s.plans.Add(key, comp, comp.SizeBytes(), planCost(comp)) {
				s.planEvictedBytes += ev.Bytes
				s.enqueueSpillLocked(spillItem{key: ev.Key, plan: ev.Val, cost: ev.Cost, bytes: ev.Bytes})
			}
			s.mu.Unlock()
			return s.rebound(comp, c, structural, t0, 0, 0)
		}
		ch, compiling := s.planFlights[key]
		if !compiling {
			break
		}
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
		// Re-check: the winner cached the plan (or failed, in which
		// case this worker becomes the next compiler).
	}
	s.planMisses++
	ch := make(chan struct{})
	s.planFlights[key] = ch
	s.mu.Unlock()

	// Warm start: a plan compiled by an earlier process may be on disk.
	// Checksum or signature failures quarantine the file and fall
	// through to a fresh compile.
	var comp *backend.Compiled
	var err error
	var cost float64
	var loadDur, compileDur time.Duration
	fromStore := false
	if s.store != nil && s.store.HasPlan(key) {
		tl := time.Now()
		comp, cost, err = s.store.LoadPlan(key, s.cfgSig)
		loadDur = time.Since(tl)
		if err == nil {
			fromStore = true
		} else {
			quarantined := false
			if errors.Is(err, store.ErrIntegrity) {
				s.store.DropPlan(key)
				quarantined = true
			}
			s.mu.Lock()
			s.storeErrors++
			if quarantined {
				s.storeQuarantines++
			}
			s.mu.Unlock()
			comp = nil
		}
	}
	if comp == nil {
		tc := time.Now()
		comp, err = core.Compile(c, s.execOptions())
		compileDur = time.Since(tc)
	}

	s.mu.Lock()
	if err == nil {
		if fromStore {
			s.planStoreHits++
		}
		// Admit at the cost the sidecar recorded when warm-started (the
		// same units planCost produces), else the fresh model value.
		if !fromStore || cost <= 0 {
			cost = planCost(comp)
		}
		for _, ev := range s.plans.Add(key, comp, comp.SizeBytes(), cost) {
			s.planEvictedBytes += ev.Bytes
			s.enqueueSpillLocked(spillItem{key: ev.Key, plan: ev.Val, cost: ev.Cost, bytes: ev.Bytes})
		}
	}
	delete(s.planFlights, key)
	close(ch)
	s.mu.Unlock()
	if err == nil && fromStore {
		// A warm-started skeleton was compiled by another process from
		// values this job never chose — rebind like any other hit.
		return s.rebound(comp, c, structural, t0, loadDur, compileDur)
	}
	return comp, planTrace(t0, loadDur, compileDur, 0), err
}

// rebound finishes a structural-cache hit: the cached skeleton's
// value-derived matrices are patched (copy-on-write — the cached
// artifact stays immutable and shared) to this circuit's own parameter
// values. Exact-keyed artifacts pass through untouched.
func (s *Server) rebound(comp *backend.Compiled, c *circuit.Circuit, structural bool, t0 time.Time, loadDur, compileDur time.Duration) (*backend.Compiled, *telemetry.Trace, error) {
	if !structural {
		return comp, planTrace(t0, loadDur, compileDur, 0), nil
	}
	tb := time.Now()
	bound, err := comp.BindParams(c.ParamValues())
	rebindDur := time.Since(tb)
	if err != nil {
		return nil, nil, fmt.Errorf("service: rebinding cached plan: %w", err)
	}
	s.mu.Lock()
	s.planRebinds++
	s.mu.Unlock()
	return bound, planTrace(t0, loadDur, compileDur, rebindDur), nil
}

// planTrace assembles compiled()'s trace fragment: store-load,
// compile, and rebind get their own spans, and whatever remains of the
// call's wall time is plan-cache overhead.
func planTrace(t0 time.Time, loadDur, compileDur, rebindDur time.Duration) *telemetry.Trace {
	tr := &telemetry.Trace{}
	tr.Add(telemetry.StagePlanCache, time.Since(t0)-loadDur-compileDur-rebindDur)
	tr.Add(telemetry.StageStoreLoad, loadDur)
	tr.Add(telemetry.StageCompile, compileDur)
	tr.Add(telemetry.StageRebind, rebindDur)
	return tr
}

// stageHist returns the registry histogram for one pipeline stage.
// Every known stage is pre-resolved at registerMetrics time; the
// registry path only runs for a stage name outside telemetry.Stages
// (which would be a bug in the caller, but must not lose the sample).
func (s *Server) stageHist(stage string) *telemetry.Histogram {
	if h, ok := s.stageLatency[stage]; ok {
		return h
	}
	return s.reg.Histogram("qgear_stage_duration_seconds",
		"Pipeline stage latency, labeled by stage.",
		telemetry.Labels{"stage": stage})
}

// observeStages folds a trace fragment into the per-stage registry
// histograms. Call it once per execution event for spans shared by
// batch-mates (compile, execute) and once per job for per-job spans
// (queue_wait, sample), so aggregates count each measured interval
// exactly once.
func (s *Server) observeStages(tr *telemetry.Trace) {
	if tr == nil {
		return
	}
	for _, sp := range tr.Spans {
		s.stageHist(sp.Stage).Observe(sp.Duration())
	}
}

// key returns the content address of (circuit, per-job options) under
// this server's execution configuration. The worker count is excluded
// (it changes wall-clock, not output) but the device count is kept: on
// the mqpu target the shot sampler splits the budget per device with
// per-device seeds, so Devices changes Counts. The seed is normalized
// away when no shots are drawn, so probabilities-only submissions of
// the same circuit always share a key.
func (s *Server) key(c *circuit.Circuit, opts SubmitOptions) string {
	kopts := s.execOptions() // derive, so key and execution never drift
	kopts.Workers = 0        // wall-clock only, not output
	if opts.Gradient {
		// Gradient jobs: keyed on the structural shape, the base point
		// (the circuit's own parameter values), and the Hamiltonian.
		return core.GradientCacheKey(c, opts.Hamiltonian, c.ParamValues(), kopts)
	}
	if len(opts.SweepPoints) > 0 {
		// Sweep jobs: structural shape + the point matrix bit-for-bit.
		// Shots and seed shape sampling sweeps and are normalized away
		// for exact Hamiltonian sweeps inside SweepCacheKey.
		kopts.Shots = opts.Shots
		kopts.Seed = opts.Seed
		return core.SweepCacheKey(c, opts.Hamiltonian, opts.SweepPoints, kopts)
	}
	if opts.Hamiltonian != nil {
		// Expectation jobs: (fingerprint, hamiltonian hash, options);
		// shots and seed are normalized away inside (exact results).
		return core.ExpectationCacheKey(c, opts.Hamiltonian, kopts)
	}
	kopts.Shots = opts.Shots
	if opts.Shots > 0 {
		kopts.Seed = opts.Seed
	}
	return core.CacheKey(c, kopts)
}

// Submit validates and enqueues a circuit, returning immediately with
// the job's snapshot. Identical submissions (same content address) are
// served from the result cache or attached to the in-flight execution
// without consuming queue capacity.
func (s *Server) Submit(c *circuit.Circuit, opts SubmitOptions) (JobInfo, error) {
	j, err := s.submit(c, opts)
	if err != nil {
		return JobInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.info(), nil
}

// validateSubmit is the pure request validation half of submit; every
// failure here counts as an "invalid" rejection.
func (s *Server) validateSubmit(c *circuit.Circuit, opts SubmitOptions) error {
	if c == nil {
		return errors.New("service: nil circuit")
	}
	if err := c.Validate(); err != nil {
		return fmt.Errorf("service: invalid circuit: %w", err)
	}
	if opts.Shots < 0 {
		return fmt.Errorf("service: negative shots %d", opts.Shots)
	}
	if opts.TimeoutMs < 0 {
		return fmt.Errorf("service: negative timeout %dms", opts.TimeoutMs)
	}
	if opts.Hamiltonian != nil {
		if opts.Shots != 0 {
			return fmt.Errorf("service: expectation jobs are exact; shots (%d) are not supported", opts.Shots)
		}
		if err := opts.Hamiltonian.Validate(); err != nil {
			return fmt.Errorf("service: invalid hamiltonian: %w", err)
		}
		if opts.Hamiltonian.NumQubits > c.NumQubits {
			return fmt.Errorf("service: hamiltonian spans %d qubits, circuit has %d",
				opts.Hamiltonian.NumQubits, c.NumQubits)
		}
	}
	if opts.Gradient {
		if opts.Hamiltonian == nil {
			return errors.New("service: gradient jobs need a hamiltonian")
		}
		if len(opts.SweepPoints) > 0 {
			return errors.New("service: gradient jobs derive their own sweep; points are not accepted")
		}
		if c.NumParams() == 0 {
			return errors.New("service: gradient of a circuit with no parameterized gates")
		}
	}
	if n := len(opts.SweepPoints); n > 0 {
		if s.cfg.MaxSweepPoints > 0 && n > s.cfg.MaxSweepPoints {
			return fmt.Errorf("service: sweep of %d points exceeds the %d-point bound", n, s.cfg.MaxSweepPoints)
		}
		nParams := c.NumParams()
		for i, pt := range opts.SweepPoints {
			if len(pt) != nParams {
				return fmt.Errorf("service: sweep point %d has %d values, circuit has %d parameter slots", i, len(pt), nParams)
			}
		}
		if opts.Hamiltonian == nil && opts.Shots <= 0 {
			return errors.New("service: a sweep without a hamiltonian must sample (shots > 0); per-point probability vectors are unbounded")
		}
	}
	return nil
}

// deadlineFor resolves a job's absolute expiry from the server-wide
// JobTimeout and the per-job TimeoutMs — the tighter of the two wins; a
// zero return means unbounded.
func (s *Server) deadlineFor(submitted time.Time, opts SubmitOptions) time.Time {
	d := s.cfg.JobTimeout
	if opts.TimeoutMs > 0 {
		if per := time.Duration(opts.TimeoutMs) * time.Millisecond; d == 0 || per < d {
			d = per
		}
	}
	if d <= 0 {
		return time.Time{}
	}
	return submitted.Add(d)
}

// submit is Submit returning the job record itself, for callers (Run)
// that must outlive the finished-job retention window.
func (s *Server) submit(c *circuit.Circuit, opts SubmitOptions) (*job, error) {
	if err := s.validateSubmit(c, opts); err != nil {
		s.mu.Lock()
		s.rejectedInvalid++
		s.mu.Unlock()
		return nil, err
	}
	// Memory admission: reject circuits whose working set cannot fit
	// the budget before anything is allocated for them — no deep copy,
	// no queue slot, no statevector.
	if s.cfg.MaxStateBytes > 0 {
		if need := s.estimateStateBytes(c.NumQubits); need > s.cfg.MaxStateBytes {
			s.mu.Lock()
			s.rejectedTooLarge++
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %d-qubit simulation needs ~%d bytes, budget is %d",
				ErrTooLarge, c.NumQubits, need, s.cfg.MaxStateBytes)
		}
	}
	if opts.Hamiltonian != nil {
		// Deep-copy for the same reason as the circuit below.
		opts.Hamiltonian = opts.Hamiltonian.Clone()
	}
	if len(opts.SweepPoints) > 0 {
		// Deep-copy the point matrix: the worker reads it long after
		// Submit returns.
		pts := make([][]float64, len(opts.SweepPoints))
		for i, pt := range opts.SweepPoints {
			pts[i] = append([]float64(nil), pt...)
		}
		opts.SweepPoints = pts
	}
	// Deep-copy: the server owns its jobs' circuits, so a caller
	// mutating theirs after Submit cannot race the worker or poison
	// the cache under the pre-mutation fingerprint.
	c = c.Copy()
	key := s.key(c, opts)
	fp := c.Fingerprint()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.nextID++
	j := &job{
		id:          fmt.Sprintf("j-%08d", s.nextID),
		key:         key,
		fp:          fp,
		circ:        c,
		ham:         opts.Hamiltonian,
		opts:        opts,
		state:       StateQueued,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	switch {
	case j.opts.Gradient:
		s.gradSubmitted++
	case len(j.opts.SweepPoints) > 0:
		s.sweepSubmitted++
	case j.ham != nil:
		s.expSubmitted++
	}

	// Content-addressed fast path: cache hit.
	if res, ok := s.cache.Get(key); ok {
		s.submitted++
		s.cacheHits++
		j.cached = true
		s.finishLocked(j, res, nil, "cache")
		s.jobs[j.id] = j
		s.retainLocked(j)
		return j, nil
	}
	// Single-flight: attach to the identical in-flight job. The
	// joiner's deadline can only loosen the leader's budget — an
	// unbounded joiner removes it entirely — so attaching never
	// tightens an execution already under way.
	if f, ok := s.inflight[key]; ok {
		s.submitted++
		s.sfHits++
		j.cached = true
		j.state = f.jobs[0].state // queued or already running
		f.flag().Extend(s.deadlineFor(j.submittedAt, opts))
		f.jobs = append(f.jobs, j)
		s.jobs[j.id] = j
		return j, nil
	}
	// Spill lookaside: an entry evicted moments ago may still be in
	// flight to disk — serve it from the spill window instead of
	// re-simulating (or racing the spiller on the file).
	if it, ok := s.pendingSpills[key]; ok && it.result != nil {
		s.submitted++
		s.cacheHits++
		j.cached = true
		s.finishLocked(j, it.result, nil, "cache")
		s.jobs[j.id] = j
		s.retainLocked(j)
		return j, nil
	}
	// From here on this job leads: it may actually execute, so it
	// carries the flight's cancellation flag.
	j.flag = cancel.WithDeadline(s.deadlineFor(j.submittedAt, opts))
	// Persistent store: a previously computed key is answered from
	// disk — no simulation, no queue capacity. This job leads a flight
	// while the load runs, so identical concurrent submissions attach
	// via the single-flight path above instead of reading the file
	// again.
	if s.store != nil && s.store.HasResult(key) {
		s.submitted++
		s.inflight[key] = &flight{jobs: []*job{j}}
		s.jobs[j.id] = j
		s.loadWG.Add(1)
		go s.serveFromStore(key)
		return j, nil
	}
	if s.store != nil {
		s.storeMisses++
	}
	// Leader: consume queue capacity.
	select {
	case s.queue <- j:
	default:
		s.nextID-- // job never existed
		switch {
		case j.opts.Gradient:
			s.gradSubmitted--
		case len(j.opts.SweepPoints) > 0:
			s.sweepSubmitted--
		case j.ham != nil:
			s.expSubmitted--
		}
		s.rejectedQueueFull++
		return nil, ErrQueueFull
	}
	s.submitted++
	s.inflight[key] = &flight{jobs: []*job{j}}
	s.jobs[j.id] = j
	return j, nil
}

// finishLocked records a terminal state for j. Callers hold s.mu.
func (s *Server) finishLocked(j *job, res *backend.Result, err error, latencyKey string) {
	j.result = res
	j.err = err
	j.finishedAt = time.Now()
	if err != nil {
		j.state = StateFailed
		s.failed++
	} else {
		j.state = StateDone
		s.completed++
	}
	h := s.latency[latencyKey]
	if h == nil {
		// One instrument serves both surfaces: the map backs the
		// /v1/stats Latency snapshot, the registry the
		// qgear_job_duration_seconds Prometheus family.
		h = s.reg.Histogram("qgear_job_duration_seconds",
			"End-to-end job latency (submit to done), labeled by serving path.",
			telemetry.Labels{"path": latencyKey})
		s.latency[latencyKey] = h
	}
	h.Observe(j.finishedAt.Sub(j.submittedAt))
	close(j.done)
}

// retainLocked enforces the finished-job retention bound.
func (s *Server) retainLocked(j *job) {
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.cfg.MaxRetainedJobs {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

// completeKeyLocked finishes every job attached to key's flight,
// admitting the result to the byte-accounted cache and routing any
// evicted entries to the spiller.
func (s *Server) completeKeyLocked(key string, res *backend.Result, err error, latencyKey string) {
	f := s.inflight[key]
	if f == nil {
		return
	}
	delete(s.inflight, key)
	if err == nil && res != nil {
		for _, ev := range s.cache.Add(key, res, res.SizeBytes(), resultCost(res)) {
			s.cacheEvictedBytes += ev.Bytes
			s.enqueueSpillLocked(spillItem{key: ev.Key, result: ev.Val, bytes: ev.Bytes})
		}
	}
	for _, j := range f.jobs {
		s.finishLocked(j, res, err, latencyKey)
		s.retainLocked(j)
	}
}

// serveFromStore completes one flight from the persistent store. A
// file that fails its checksum or integrity checks is quarantined and
// the flight leader falls back to a real simulation through the queue.
func (s *Server) serveFromStore(key string) {
	defer s.loadWG.Done()
	t0 := time.Now()
	res, err := s.store.LoadResult(key, s.cfgSig)
	loadDur := time.Since(t0)
	if err == nil {
		s.storeLoad.Observe(loadDur)
		// The store does not persist traces; a loaded result's trace is
		// this serving event's own cost — one store_load span.
		tr := &telemetry.Trace{}
		tr.Add(telemetry.StageStoreLoad, loadDur)
		res.Trace = tr
		s.observeStages(tr)
	}
	s.mu.Lock()
	if err == nil {
		s.storeHits++
		if f := s.inflight[key]; f != nil {
			for _, j := range f.jobs {
				j.cached = true
			}
		}
		s.completeKeyLocked(key, res, nil, "store")
		s.mu.Unlock()
		return
	}
	s.storeErrors++
	if errors.Is(err, store.ErrIntegrity) {
		s.storeQuarantines++
	}
	// Capture the leader under the mutex: concurrent identical
	// submissions keep appending to f.jobs through the single-flight
	// path, so the slice must not be read unlocked.
	var leader *job
	if f := s.inflight[key]; f != nil {
		leader = f.jobs[0]
	}
	s.mu.Unlock()
	if errors.Is(err, store.ErrIntegrity) {
		// Quarantine only provably bad files; a transient I/O failure
		// leaves the artifact for the next attempt.
		s.store.DropResult(key)
	}
	if leader != nil {
		// Blocking send is safe: Close waits for in-flight loads before
		// closing the queue, and workers keep draining until then.
		s.queue <- leader
	}
}

// worker drains the queue, coalescing compatible jobs into batches.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := <-s.queue
		if !ok {
			return
		}
		s.busy.Add(1)
		batch := s.collectBatch(j)
		s.runBatchSafe(batch)
		s.busy.Add(-1)
	}
}

// collectBatch gathers up to MaxBatch-1 additional queued jobs, waiting
// at most BatchWindow for stragglers. Every queued job is compatible by
// construction: the server owns all output-affecting options except
// shots and seed, which are applied per job after the shared
// probabilities are computed.
func (s *Server) collectBatch(first *job) []*job {
	batch := []*job{first}
	if s.cfg.MaxBatch <= 1 {
		return batch
	}
	timer := time.NewTimer(s.cfg.BatchWindow)
	defer timer.Stop()
	for len(batch) < s.cfg.MaxBatch {
		select {
		case j, ok := <-s.queue:
			if !ok {
				return batch
			}
			batch = append(batch, j)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// markRunning flips every batch member (and its attached joiners) to
// running.
func (s *Server) markRunning(batch []*job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range batch {
		if f := s.inflight[j.key]; f != nil {
			for _, m := range f.jobs {
				m.state = StateRunning
			}
		}
	}
}

// guardPanic runs fn, converting any panic into an ErrPanic-classed
// error instead of letting it unwind the worker. Every execution
// boundary in runBatch goes through it, so one panicking job fails
// alone: its batch-mates, the worker goroutine, and the server all
// survive, and every waiter's done channel still closes.
func (s *Server) guardPanic(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			s.panicsRecovered++
			s.mu.Unlock()
			err = fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	fn()
	return nil
}

// classifyExecErr lifts engine-level cancellation verdicts into the
// service error taxonomy: anything the cancel package tripped becomes
// ErrDeadlineExceeded (HTTP 504); every other error passes through.
func classifyExecErr(err error) error {
	if err != nil && errors.Is(err, cancel.ErrCancelled) {
		return fmt.Errorf("%w: %v", ErrDeadlineExceeded, err)
	}
	return err
}

// queueExpiredErr is the dequeue-time drop: the job's budget ran out
// before a worker ever picked it up, so it fails without executing.
func queueExpiredErr(cause error) error {
	return fmt.Errorf("%w (expired in queue): %v", ErrDeadlineExceeded, cause)
}

// batchFlag derives the coalesced batch's shared cancellation flag: the
// batch is one execution, so the loosest member deadline governs, and
// any unbounded member makes the whole batch unbounded (its result is
// owed regardless of how long it takes).
func batchFlag(jobs []*job) *cancel.Flag {
	var max time.Time
	for _, j := range jobs {
		d := j.flag.Deadline()
		if d.IsZero() {
			return nil
		}
		if d.After(max) {
			max = d
		}
	}
	if max.IsZero() {
		return nil
	}
	return cancel.WithDeadline(max)
}

// runBatchSafe is the worker's last-resort net around runBatch: the
// guarded execution boundaries inside should make it unreachable, but
// if serving-layer code itself panics, every member of the batch still
// reaches a terminal state (done channels close, flights clear) and
// the worker survives to drain the next batch.
func (s *Server) runBatchSafe(batch []*job) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("%w: %v", ErrPanic, r)
			s.mu.Lock()
			s.panicsRecovered++
			for _, j := range batch {
				// Idempotent per key: members runBatch already completed
				// before panicking have no flight left and are skipped.
				s.completeKeyLocked(j.key, nil, err, "panic")
			}
			s.mu.Unlock()
		}
	}()
	s.runBatch(batch)
}

// runBatch executes one coalesced batch: unique circuits (by
// fingerprint) run through core.Run in a single call — the mqpu
// device-parallel path when so configured — then each job's shots are
// sampled from its circuit's probability vector with the job's seed,
// reproducing exactly what a standalone backend.Run would return.
// Expectation jobs ride the same queue but execute one by one through
// the compiled-plan cache (their keys are unique within a batch by
// single-flight), so one cached compile serves any number of
// observables on the same circuit.
func (s *Server) runBatch(batch []*job) {
	// Queue wait ends for every member when the worker picks the batch
	// up; each job's queue_wait span is measured against its own
	// submission time.
	dequeued := time.Now()
	s.markRunning(batch)

	type outcome struct {
		j   *job
		res *backend.Result
		err error
		// skipped marks a job that never executed (expired in queue):
		// it completes like any failure but stays out of the executed
		// counter.
		skipped bool
	}
	var outs []outcome
	var cancelledQueue, cancelledRunning uint64

	// Distributed-communication totals for this batch's fresh
	// executions, aggregated once per execution event (batch-mates
	// share one execution, so summing per job would overcount).
	var mgpuExch, mgpuAvoided uint64
	var mgpuBytes int64

	var probJobs []*job
	var expJobs []*job
	var sweepJobs []*job
	for _, j := range batch {
		switch {
		case j.opts.Gradient || len(j.opts.SweepPoints) > 0:
			sweepJobs = append(sweepJobs, j)
		case j.ham != nil:
			expJobs = append(expJobs, j)
		default:
			probJobs = append(probJobs, j)
		}
	}
	// Expectation, sweep and gradient jobs execute one by one (their keys
	// are unique within a batch by single-flight, so each merged trace
	// is both the job's breakdown and exactly one execution event),
	// expectation jobs first. One compiled() resolution — a single
	// compile or a structural-cache hit — serves every point of a sweep
	// through rebinds. A configuration whose transform is
	// value-dependent surfaces ErrNotRebindable from the compiled fast
	// path and falls back to per-point compilation from the source
	// circuit: same results, none of the compile-once savings.
	var sweepPts uint64
	for _, j := range append(expJobs, sweepJobs...) {
		if cerr := j.flag.Err(); cerr != nil {
			// The budget ran out while the job sat in the queue: fail it
			// without paying for compilation or execution.
			cancelledQueue++
			outs = append(outs, outcome{j: j, err: queueExpiredErr(cerr), skipped: true})
			continue
		}
		var comp *backend.Compiled
		var ctr *telemetry.Trace
		var res *backend.Result
		var err error
		if gerr := s.guardPanic(func() {
			comp, ctr, err = s.compiled(j.circ, j.fp)
			if err != nil {
				return
			}
			o := s.execOptionsCancel(j.flag)
			o.Shots, o.Seed = j.opts.Shots, j.opts.Seed // ignored by exact expectation runs
			switch {
			case j.opts.Gradient:
				res, err = core.RunGradientCompiled(comp, j.ham, j.circ.ParamValues(), o)
				if errors.Is(err, backend.ErrNotRebindable) {
					res, err = core.RunGradient(j.circ, j.ham, j.circ.ParamValues(), o)
				}
			case len(j.opts.SweepPoints) > 0:
				res, err = core.RunSweepCompiled(comp, j.ham, j.opts.SweepPoints, o)
				if errors.Is(err, backend.ErrNotRebindable) {
					res, err = core.RunSweep(j.circ, j.ham, j.opts.SweepPoints, o)
				}
			default:
				res, err = core.RunExpectationCompiled(comp, j.ham, o)
			}
		}); gerr != nil {
			res, err = nil, gerr
		}
		if cls := classifyExecErr(err); cls != err { //nolint:errorlint // identity check, not a match
			res, err = nil, cls
			cancelledRunning++
		}
		if res != nil {
			sweepPts += uint64(res.SweepPoints)
			tr := &telemetry.Trace{}
			tr.Add(telemetry.StageQueueWait, dequeued.Sub(j.submittedAt))
			tr.Append(ctr)
			tr.Append(res.Trace)
			res.Trace = tr
			s.observeStages(tr)
			mgpuExch += uint64(res.Exchanges)
			mgpuAvoided += uint64(res.AvoidedExchanges)
			mgpuBytes += res.BytesSent
		}
		outs = append(outs, outcome{j: j, res: res, err: err})
	}
	// Probability jobs whose budget expired in the queue drop here, the
	// same dequeue-time check the expectation path runs.
	batch = batch[:0]
	for _, j := range probJobs {
		if cerr := j.flag.Err(); cerr != nil {
			cancelledQueue++
			outs = append(outs, outcome{j: j, err: queueExpiredErr(cerr), skipped: true})
			continue
		}
		batch = append(batch, j)
	}

	var order []string
	byFP := make(map[string][]*job, len(batch))
	circs := make([]*circuit.Circuit, 0, len(batch))
	for _, j := range batch {
		if byFP[j.fp] == nil {
			order = append(order, j.fp)
			circs = append(circs, j.circ)
		}
		byFP[j.fp] = append(byFP[j.fp], j)
	}

	// Resolve each unique circuit's execution IR through the plan
	// cache, then execute the precompiled batch — repeat fingerprints
	// pay zero transform/planning cost. Both phases run behind the
	// panic guard (the tile compiler and the engines are the code most
	// likely to trip on a pathological circuit), and the batch executes
	// under the members' loosest deadline.
	var err error
	comps := make([]*backend.Compiled, len(circs))
	compTrs := make([]*telemetry.Trace, len(circs))
	bflag := batchFlag(batch)
	if gerr := s.guardPanic(func() {
		for i, c := range circs {
			if comps[i], compTrs[i], err = s.compiled(c, order[i]); err != nil {
				break
			}
		}
	}); gerr != nil {
		err = gerr
	}
	var results []*backend.Result
	if err == nil {
		if gerr := s.guardPanic(func() {
			results, err = core.RunCompiledBatch(comps, s.execOptionsCancel(bflag))
		}); gerr != nil {
			results, err = nil, gerr
		}
	}
	var indivErrs []error
	if err != nil && len(circs) > 1 && !errors.Is(err, cancel.ErrCancelled) {
		// One poisonous circuit must not fail its batch-mates: fall
		// back to individual runs so errors stay job-local (each behind
		// its own panic guard, so a per-circuit panic fails only that
		// circuit). The good circuits are re-simulated —
		// backend.RunBatch discards its partial results on error —
		// which is acceptable because error batches are rare and bad
		// circuits are mostly rejected at Submit by Validate. A batch
		// cancelled on deadline skips the fallback entirely: the shared
		// flag was the loosest member budget, so every member is
		// equally expired and re-running them would just burn a worker.
		results = make([]*backend.Result, len(circs))
		indivErrs = make([]error, len(circs))
		for i, c := range circs {
			i, c := i, c
			if gerr := s.guardPanic(func() {
				results[i], indivErrs[i] = core.RunOne(c, s.execOptionsCancel(bflag))
			}); gerr != nil {
				results[i], indivErrs[i] = nil, gerr
			}
			indivErrs[i] = classifyExecErr(indivErrs[i])
		}
		err = nil
	}
	err = classifyExecErr(err)

	// Build every job's outcome — including shot sampling, which is
	// O(2^n + shots) — before touching s.mu, so a big batch never
	// stalls submissions, polls, or other workers' completions.
	for i, fp := range order {
		jobs := byFP[fp]
		if err != nil {
			for _, j := range jobs {
				if errors.Is(err, ErrDeadlineExceeded) {
					cancelledRunning++
				}
				outs = append(outs, outcome{j: j, err: err})
			}
			continue
		}
		if results[i] == nil {
			// Individual-fallback failure for this circuit: surface
			// its own error, not a generic one.
			ferr := fmt.Errorf("service: simulation failed for circuit %q", jobs[0].circ.Name)
			if indivErrs != nil && indivErrs[i] != nil {
				ferr = indivErrs[i]
			}
			for _, j := range jobs {
				if errors.Is(ferr, ErrDeadlineExceeded) {
					cancelledRunning++
				}
				outs = append(outs, outcome{j: j, err: ferr})
			}
			continue
		}
		// The compile/store-load/execute spans are shared by every
		// batch-mate of this fingerprint: observe them once per
		// execution event, not once per job.
		shared := &telemetry.Trace{}
		shared.Append(compTrs[i])
		shared.Append(results[i].Trace)
		s.observeStages(shared)
		mgpuExch += uint64(results[i].Exchanges)
		mgpuAvoided += uint64(results[i].AvoidedExchanges)
		mgpuBytes += results[i].BytesSent
		for _, j := range jobs {
			// Duration is this circuit's own simulation time (from
			// backend.Run), not the whole batch's wall-clock.
			jr := &backend.Result{
				Target:           s.cfg.Target,
				Probabilities:    results[i].Probabilities,
				KernelStats:      results[i].KernelStats,
				PlanStats:        results[i].PlanStats,
				TileBits:         results[i].TileBits,
				NumQubits:        results[i].NumQubits,
				Exchanges:        results[i].Exchanges,
				BytesSent:        results[i].BytesSent,
				AvoidedExchanges: results[i].AvoidedExchanges,
				Duration:         results[i].Duration,
			}
			// Per-job spans (queue_wait, sample) are observed per job;
			// the attached trace additionally carries the shared spans
			// so each result explains its own end-to-end path.
			queueWait := dequeued.Sub(j.submittedAt)
			var serr error
			var sampleDur time.Duration
			if j.opts.Shots > 0 {
				// backend.SampleShots applies the target's own
				// sampling path (incl. the mqpu per-device split), so
				// a coalesced job's counts match a standalone
				// backend.Run bit for bit.
				ts := time.Now()
				if gerr := s.guardPanic(func() {
					jr.Counts, serr = backend.SampleShots(jr.Probabilities, backend.Config{
						Target:  s.cfg.Target,
						Devices: s.cfg.Devices,
						Shots:   j.opts.Shots,
						Seed:    j.opts.Seed,
					})
				}); gerr != nil {
					serr = gerr
				}
				sampleDur = time.Since(ts)
			}
			own := &telemetry.Trace{}
			own.Add(telemetry.StageQueueWait, queueWait)
			own.Add(telemetry.StageSample, sampleDur)
			s.observeStages(own)
			tr := &telemetry.Trace{}
			tr.Add(telemetry.StageQueueWait, queueWait)
			tr.Append(shared)
			tr.Add(telemetry.StageSample, sampleDur)
			jr.Trace = tr
			outs = append(outs, outcome{j: j, res: jr, err: serr})
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches++
	s.batchedJobs += uint64(len(outs))
	s.mgpuExchanges += mgpuExch
	s.mgpuAvoided += mgpuAvoided
	s.mgpuBytesSent += mgpuBytes
	s.cancelledQueue += cancelledQueue
	s.cancelledRunning += cancelledRunning
	s.sweepPointsRun += sweepPts
	lat := string(s.cfg.Target)
	for _, o := range outs {
		if !o.skipped {
			s.executed++
		}
		key := lat
		switch {
		case o.j.opts.Gradient:
			if !o.skipped {
				s.gradExecuted++
			}
			key = "gradient"
		case len(o.j.opts.SweepPoints) > 0:
			if !o.skipped {
				s.sweepExecuted++
			}
			key = "sweep"
		case o.j.ham != nil:
			if !o.skipped {
				s.expExecuted++
			}
			key = "expectation"
		}
		if o.err != nil && errors.Is(o.err, ErrDeadlineExceeded) {
			key = "deadline"
		}
		s.completeKeyLocked(o.j.key, o.res, o.err, key)
	}
}

// Job returns the snapshot of a job by id.
func (s *Server) Job(id string) (JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	return j.info(), nil
}

// Result returns the completed result of a job. ErrNotDone is returned
// while the job is queued or running; a failed job returns its error.
func (s *Server) Result(id string) (*backend.Result, error) {
	_, res, err := s.Lookup(id)
	return res, err
}

// Lookup returns a job's snapshot and, when finished, its result, in
// one consistent read: the snapshot's state always matches whether a
// result is present. ErrNotDone accompanies the snapshot while the job
// is queued or running; a failed job returns its simulation error.
func (s *Server) Lookup(id string) (JobInfo, *backend.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, nil, ErrNotFound
	}
	switch j.state {
	case StateDone:
		return j.info(), j.result, nil
	case StateFailed:
		return j.info(), nil, j.err
	default:
		return j.info(), nil, ErrNotDone
	}
}

// Wait blocks until the job finishes (or ctx is done) and returns its
// final snapshot.
func (s *Server) Wait(ctx context.Context, id string) (JobInfo, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobInfo{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.info(), nil
}

// WaitFor blocks until the job finishes or d elapses, returning the
// job's current snapshot either way — the long-poll primitive behind
// GET /v1/jobs/{id}?wait_ms=N. A non-positive d degenerates to a plain
// poll.
func (s *Server) WaitFor(id string, d time.Duration) (JobInfo, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-j.done:
		case <-t.C:
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.info(), nil
}

// Run is the synchronous convenience path: submit and wait, returning
// the result directly — the embeddable equivalent of one API call. It
// holds the job record itself, so the result survives even if the
// finished-job retention window evicts the id before the caller reads
// it.
func (s *Server) Run(ctx context.Context, c *circuit.Circuit, opts SubmitOptions) (*backend.Result, JobInfo, error) {
	j, err := s.submit(c, opts)
	if err != nil {
		return nil, JobInfo{}, err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		s.mu.Lock()
		in := j.info()
		s.mu.Unlock()
		return nil, in, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.result, j.info(), j.err
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		QueueDepth:            len(s.queue),
		QueueCapacity:         s.cfg.QueueSize,
		Workers:               s.cfg.WorkerPool,
		WorkersBusy:           int(s.busy.Load()),
		Submitted:             s.submitted,
		Completed:             s.completed,
		Failed:                s.failed,
		PanicsRecovered:       s.panicsRecovered,
		RejectedQueueFull:     s.rejectedQueueFull,
		RejectedTooLarge:      s.rejectedTooLarge,
		RejectedInvalid:       s.rejectedInvalid,
		CancelledQueue:        s.cancelledQueue,
		CancelledRunning:      s.cancelledRunning,
		CacheHits:             s.cacheHits,
		SingleFlightHits:      s.sfHits,
		Executed:              s.executed,
		ExpectationJobs:       s.expSubmitted,
		ExpectationExecuted:   s.expExecuted,
		SweepJobs:             s.sweepSubmitted,
		SweepExecuted:         s.sweepExecuted,
		SweepPointsRun:        s.sweepPointsRun,
		GradientJobs:          s.gradSubmitted,
		GradientExecuted:      s.gradExecuted,
		PlanRebinds:           s.planRebinds,
		CacheLen:              s.cache.Len(),
		CacheCapacity:         s.cfg.CacheSize,
		CacheBytes:            s.cache.Bytes(),
		CacheMaxBytes:         s.cfg.MaxCacheBytes,
		CacheEvictions:        s.cache.Evictions(),
		CacheEvictedBytes:     s.cacheEvictedBytes,
		PlanCacheHits:         s.planHits,
		PlanCacheMisses:       s.planMisses,
		PlanCacheLen:          s.plans.Len(),
		PlanCacheBytes:        s.plans.Bytes(),
		PlanCacheMaxBytes:     s.cfg.MaxPlanCacheBytes,
		PlanCacheEvictions:    s.plans.Evictions(),
		PlanCacheEvictedBytes: s.planEvictedBytes,
		StoreHits:             s.storeHits,
		StorePlanHits:         s.planStoreHits,
		StoreMisses:           s.storeMisses,
		StoreSpills:           s.storeSpills,
		StoreSpillDrops:       s.storeSpillDrops,
		StoreErrors:           s.storeErrors,
		StoreQuarantines:      s.storeQuarantines,
		Batches:               s.batches,
		BatchedJobs:           s.batchedJobs,
		MgpuExchanges:         s.mgpuExchanges,
		MgpuAvoidedExchanges:  s.mgpuAvoided,
		MgpuBytesSent:         s.mgpuBytesSent,
		Latency:               make(map[string]HistogramSnapshot, len(s.latency)),
		UptimeSeconds:         time.Since(s.start).Seconds(),
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.StoreDir = ss.Dir
		st.StoreResultEntries = ss.ResultEntries
		st.StorePlanEntries = ss.PlanEntries
		st.StoreBytes = ss.Bytes
		st.StoreMaxBytes = ss.MaxBytes
		st.StoreGCEvictions = ss.GCEvictions
		st.StoreGCEvictedBytes = ss.GCEvictedBytes
		st.StoreGCRejected = ss.GCRejected
		st.StoreAdmissionSkips = s.storeAdmissionSkips
		st.StoreManifestRecords = ss.ManifestRecords
		st.StoreManifestCompactions = ss.ManifestCompactions
		st.StoreBootScanned = ss.BootScanned
	}
	if st.Submitted > 0 {
		st.HitRate = float64(st.CacheHits+st.SingleFlightHits+st.StoreHits) / float64(st.Submitted)
	}
	if st.Batches > 0 {
		st.MeanBatchLen = float64(st.BatchedJobs) / float64(st.Batches)
	}
	for k, h := range s.latency {
		st.Latency[k] = snapshotHistogram(h)
	}
	return st
}

// Registry returns the server's telemetry registry — the backing for
// the /metrics exposition, exposed so embedders can mount it
// themselves or add process-level instruments.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// cacheKeys exposes LRU recency order to tests.
func (s *Server) cacheKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Keys()
}

// Close stops accepting submissions, drains every queued and in-flight
// job to completion, stops the worker pool, and — when a persistent
// store is configured — spills every resident cache entry to disk so
// the next process warm-starts with this one's working set. Safe to
// call twice.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		s.spillWG.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.loadWG.Wait() // store loads finish (and their fallbacks enqueue) first
	close(s.queue)
	s.wg.Wait()
	if s.store != nil {
		s.mu.Lock()
		items := make([]spillItem, 0, s.cache.Len()+s.plans.Len())
		for _, e := range s.cache.Entries() {
			items = append(items, spillItem{key: e.Key, result: e.Val})
		}
		for _, e := range s.plans.Entries() {
			items = append(items, spillItem{key: e.Key, plan: e.Val, cost: e.Cost})
		}
		s.mu.Unlock()
		for _, it := range items {
			s.spill <- it // blocking: shutdown durability beats latency
		}
		close(s.spill)
		s.spillWG.Wait()
	}
	return nil
}
