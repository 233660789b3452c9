package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"qgear"
	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/qcrank"
	"qgear/internal/qft"
	"qgear/internal/qimage"
	"qgear/internal/qmath"
	"qgear/internal/randcirc"
	"qgear/internal/sampling"
)

// --- randu24: the paper's random CX-block unitary (§3, App. D.1) ---

type randuSize struct{ qubits, blocks, shots int }

func randuSizeFor(smoke bool) randuSize {
	if smoke {
		return randuSize{qubits: 12, blocks: 20, shots: 300}
	}
	return randuSize{qubits: 24, blocks: 100, shots: 3000}
}

// randuStructureSeed fixes which qubit pairs the CX blocks act on. The
// pairs decide the plan (tile runs, relabel swaps, rank exchanges) and
// so the memory work of a job; keeping them fixed makes runs with
// different seeds do the same work. The workload seed draws the
// rotation angles and the sampling seed.
const randuStructureSeed = 0x5eed_2025

// randuCircuit builds Algorithm 1's circuit on the fixed pair structure
// with angles drawn from angleSeed.
func randuCircuit(sz randuSize, angleSeed uint64) (*circuit.Circuit, error) {
	pairs, err := randcirc.RandomQubitPairs(sz.qubits, sz.blocks, qmath.NewRNG(randuStructureSeed))
	if err != nil {
		return nil, err
	}
	rng := qmath.NewRNG(angleSeed)
	c := circuit.New(sz.qubits, 0)
	c.Name = fmt.Sprintf("randu_%dq_%db", sz.qubits, sz.blocks)
	for _, p := range pairs {
		c.RY(rng.Angle(), p[0])
		c.RZ(rng.Angle(), p[1])
		c.CX(p[0], p[1])
	}
	c.MeasureAll()
	return c, nil
}

// warmCircuit is the set-up job of an engine workload: one gate at the
// workload's width. It pays what the first job of a process pays before
// timed work (worker pool start, tile-width detection, first touch of a
// state of that size, readout and sampling) without the workload's
// depth.
func warmCircuit(n int, measure bool) *circuit.Circuit {
	c := circuit.New(n, 0)
	c.Name = "warm-up"
	c.X(0)
	if measure {
		c.MeasureAll()
	}
	return c
}

// setupFlag makes the binary run only one workload's set-up and print
// its wall time.
const setupFlag = "--setup-probe"

// setupRuns is how many fresh processes time a workload's set-up;
// setup_s is their median.
const setupRuns = 5

// warmups builds each engine workload's set-up job. root is the
// workload's seeded generator: the set-up job draws from it exactly as
// the workload run does.
var warmups = map[string]func(b *bench, root *qmath.RNG) (func() error, error){
	"randu24": randuWarmup,
	"qcrank":  qcrankWarmup,
	"expect":  expectWarmup,
}

// engineSetup runs the set-up job in this process, untimed, so the timed
// jobs start warm, then times it in fresh processes (setupProbes).
func (b *bench) engineSetup(root *qmath.RNG) error {
	warm, err := warmups[b.cfg.workload](b, root)
	if err != nil {
		return err
	}
	err = warm()
	b.attempt(err)
	if err != nil {
		return err
	}
	settle()
	return b.setupProbes()
}

// setupProbes records setup_s as the median over setupRuns child
// processes, run one at a time, each timing the workload's set-up as the
// first work of a fresh process: repeated in one process, most of that
// work would be skipped. Traced runs report no setup_s and skip them.
func (b *bench) setupProbes() error {
	if b.rec != nil {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	var runs sample
	for i := 0; i < setupRuns; i++ {
		args := []string{setupFlag, strconv.Itoa(i), "--workload", b.cfg.workload,
			"--seed", strconv.FormatUint(b.cfg.seed, 10), "--out-dir", b.cfg.outDir}
		if b.cfg.smoke {
			args = append(args, "--smoke")
		}
		out, err := exec.Command(self, args...).Output()
		var res setupResult
		if err == nil {
			err = json.Unmarshal(out, &res)
		}
		b.attempt(err)
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		runs = append(runs, res.Seconds)
	}
	b.slot(slotSetup, runs.p50Metric("setup_s", "s"))
	return nil
}

type setupResult struct {
	Seconds float64 `json:"seconds"`
}

// setupChild times one set-up as the first work of this process and
// prints the wall time as JSON. args are the probe's index (which serve
// boot it is) and the workload flags.
func setupChild(args []string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "qgbench: set-up probe:", err)
		return 1
	}
	if len(args) == 0 {
		return fail(errors.New("missing probe index"))
	}
	index, err := strconv.Atoi(args[0])
	if err != nil {
		return fail(err)
	}
	cfg, err := parseFlags(args[1:])
	if err != nil {
		return fail(err)
	}
	b := &bench{cfg: cfg, nproc: runtime.NumCPU()}
	var d time.Duration
	if cfg.workload == "serve" {
		d, err = b.serveSetupProbe(index)
	} else {
		var warm func() error
		if warm, err = warmups[cfg.workload](b, qmath.NewRNG(cfg.seed)); err == nil {
			d, err = timed(warm)
		}
	}
	if err != nil {
		return fail(err)
	}
	fmt.Println(mustJSON(setupResult{Seconds: secs(d)}))
	return 0
}

// mgpuShape is the nvidia-mgpu layout: 2 ranks with devices × workers
// per rank within nproc.
func (b *bench) mgpuShape() (ranks, workersPerRank int) {
	return 2, max(1, b.nproc/2)
}

// randuOptions are the nvidia and nvidia-mgpu run options of randu24.
func randuOptions(b *bench, sz randuSize) (nv, mg qgear.RunOptions) {
	ranks, wpr := b.mgpuShape()
	nv = qgear.RunOptions{Target: backend.TargetNvidia, Workers: b.nproc, Shots: sz.shots}
	mg = qgear.RunOptions{Target: backend.TargetNvidiaMGPU, Devices: ranks, Workers: wpr, Shots: sz.shots}
	return nv, mg
}

func randuWarmup(b *bench, _ *qmath.RNG) (func() error, error) {
	sz := randuSizeFor(b.cfg.smoke)
	nv, _ := randuOptions(b, sz)
	return func() error { _, err := qgear.Run(warmCircuit(sz.qubits, true), nv); return err }, nil
}

func runRandu24(b *bench) error {
	sz := randuSizeFor(b.cfg.smoke)
	root := qmath.NewRNG(b.cfg.seed)
	nv, mg := randuOptions(b, sz)
	if err := b.engineSetup(root); err != nil {
		return err
	}
	if b.rec != nil {
		return randuTraced(b, sz, root, nv, mg)
	}
	var simN, simM sample
	type pair struct{ nvidia, mgpu sampling.Counts }
	var pairs []pair
	t0 := time.Now()
	for i := 0; i == 0 || b.until(t0); i++ {
		c, err := randuCircuit(sz, root.Uint64())
		if err != nil {
			return err
		}
		seed := root.Uint64()
		nv.Seed, mg.Seed = seed, seed
		var rn, rm *qgear.Result
		settle()
		dn, errN := timed(func() error { var err error; rn, err = qgear.Run(c, nv); return err })
		b.attempt(errN)
		settle()
		dm, errM := timed(func() error { var err error; rm, err = qgear.Run(c, mg); return err })
		b.attempt(errM)
		if errN == nil && errM == nil {
			simN, simM = append(simN, secs(dn)), append(simM, secs(dm))
			pairs = append(pairs, pair{rn.Counts, rm.Counts})
		}
	}
	for _, p := range pairs {
		ref := p.nvidia
		if b.corrupted("randu24.counts_nvidia_eq_mgpu") {
			ref = perturbCounts(ref)
		}
		b.verify("randu24.counts_nvidia_eq_mgpu", countsEqual(ref, p.mgpu))
	}
	if len(simN) == 0 {
		return fmt.Errorf("randu24: no job completed")
	}
	b.slot(slotMain, msMetric(simN.p50Metric("simulate_s", "s")))
	b.slot(slotSecond, msMetric(simM.p50Metric("mgpu_simulate_s", "s")))
	return nil
}

func randuTraced(b *bench, sz randuSize, root *qmath.RNG, nv, mg qgear.RunOptions) error {
	t := &tracer{rec: b.rec}
	c, err := randuCircuit(sz, root.Uint64())
	if err != nil {
		return err
	}
	seed := root.Uint64()
	nv.Seed, mg.Seed = seed, seed
	var rn, rm *qgear.Result
	settle()
	du, err := timed(func() error {
		var err error
		if rn, err = qgear.Run(c, nv); err != nil {
			return err
		}
		rm, err = qgear.Run(c, mg)
		return err
	})
	b.attempt(err)
	if err != nil {
		return err
	}
	ranks, wpr := b.mgpuShape()
	var comp *compiled
	var cn, cm sampling.Counts
	settle()
	dt, err := timed(func() error {
		err := b.rec.do("bench.job", 0, 1, func(id int) error {
			var err error
			if comp, err = t.compile(1, id, c, kernel.Options{}, 0); err != nil {
				return err
			}
			_, cn, err = t.simulate(1, id, comp, b.nproc, sz.shots, seed)
			return err
		})
		if err != nil {
			return err
		}
		return b.rec.do("bench.job", 0, 2, func(id int) error {
			compM, err := t.compile(2, id, c, kernel.Options{FusionLocalQubits: sz.qubits - 1}, 1)
			if err != nil {
				return err
			}
			_, cm, err = t.mgpuSimulate(2, id, compM, ranks, wpr, sz.shots, seed)
			return err
		})
	})
	b.attempt(err)
	if err != nil {
		return err
	}
	ref := rn.Counts
	if b.corrupted("trace.identical") {
		ref = perturbCounts(ref)
	}
	b.verify("trace.identical", firstErr(countsEqual(ref, cn), countsEqual(rm.Counts, cm)))
	if err := t.speedupProbe(3, comp, b.nproc); err != nil {
		return err
	}
	b.layerMetrics(t)
	b.layerAdd(overheadMetric(dt, du))
	return nil
}

// --- qcrank: QCrank image encoding, as cmd/qcrank runs it ---

type qcrankSize struct{ w, h, addr, shotsPerAddr int }

func qcrankSizeFor(smoke bool) qcrankSize {
	if smoke {
		return qcrankSize{w: 16, h: 8, addr: 4, shotsPerAddr: 200}
	}
	return qcrankSize{w: 64, h: 40, addr: 8, shotsPerAddr: qcrank.DefaultShotsPerAddress}
}

// qcrankFusion is the fusion window cmd/qcrank hardcodes.
const qcrankFusion = 4

// qcrankJob is one generated image and its encoding circuit.
type qcrankJob struct {
	img  *qimage.Image
	plan qcrank.Plan
	c    *circuit.Circuit
	seed uint64
}

func newQCrankJob(sz qcrankSize, root *qmath.RNG, i int) (*qcrankJob, error) {
	kinds := qimage.PaperImageNames()
	img, err := qimage.Synthetic(kinds[i%len(kinds)], sz.w, sz.h, root.Uint64())
	if err != nil {
		return nil, err
	}
	plan, err := qcrank.NewPlan(img.Pixels(), sz.addr, sz.shotsPerAddr)
	if err != nil {
		return nil, err
	}
	c, err := qcrank.Encode(img.Pix, plan, true)
	if err != nil {
		return nil, err
	}
	return &qcrankJob{img: img, plan: plan, c: c, seed: root.Uint64()}, nil
}

func (j *qcrankJob) config() backend.Config {
	return backend.Config{Target: backend.TargetNvidia, Shots: j.plan.Shots, Seed: j.seed, FusionWindow: qcrankFusion}
}

// codecReps is how many times each qcrank job's encoding and decoding
// are timed. They take milliseconds against the simulation's seconds, so
// one job gives several samples.
const codecReps = 8

// codec times the work a QCrank user does around one simulation:
// planning and encoding the image into its circuit, and decoding the
// counts into pixel values.
func (j *qcrankJob) codec(sz qcrankSize, counts sampling.Counts) (time.Duration, error) {
	return timed(func() error {
		plan, err := qcrank.NewPlan(j.img.Pixels(), sz.addr, sz.shotsPerAddr)
		if err != nil {
			return err
		}
		if _, err := qcrank.Encode(j.img.Pix, plan, true); err != nil {
			return err
		}
		_, _, err = qcrank.DecodeCounts(counts, plan)
		return err
	})
}

// qcrankMinCorrelation is the reconstruction quality every decoded
// image must reach (Pearson correlation with the input).
const qcrankMinCorrelation = 0.9

// decode reconstructs the image from counts and checks it.
func (j *qcrankJob) decode(counts sampling.Counts) (qimage.Metrics, error) {
	vals, missing, err := qcrank.DecodeCounts(counts, j.plan)
	if err != nil {
		return qimage.Metrics{}, err
	}
	reco := j.img.Clone()
	copy(reco.Pix, vals)
	m, err := qimage.Compare(j.img, reco)
	if err != nil {
		return m, err
	}
	if len(missing) > 0 {
		return m, fmt.Errorf("%d addresses received no shots", len(missing))
	}
	return m, errf(m.Correlation >= qcrankMinCorrelation, "correlation %.4f below %.2f", m.Correlation, qcrankMinCorrelation)
}

func qcrankWarmup(b *bench, root *qmath.RNG) (func() error, error) {
	warm, err := newQCrankJob(qcrankSizeFor(b.cfg.smoke), root, 0)
	if err != nil {
		return nil, err
	}
	return func() error {
		_, err := backend.Run(warmCircuit(warm.c.NumQubits, true), warm.config())
		return err
	}, nil
}

func runQCrank(b *bench) error {
	sz := qcrankSizeFor(b.cfg.smoke)
	root := qmath.NewRNG(b.cfg.seed)
	if err := b.engineSetup(root); err != nil {
		return err
	}
	if b.rec != nil {
		return qcrankTraced(b, sz, root)
	}
	var sim, codec sample // codec: per image kind, the median codec time
	type done struct {
		job    *qcrankJob
		counts sampling.Counts
	}
	var jobs []done
	// Jobs cycle through the image kinds, and decoding time grows with
	// the number of distinct outcomes, which differs by kind. The run
	// therefore covers every kind at least once and times the codec on
	// exactly one job of each; codec_ms is the mean over the kinds of each
	// kind's median, the same work in every run whatever the job count.
	kinds := len(qimage.PaperImageNames())
	t0 := time.Now()
	for i := 0; i < kinds || b.until(t0); i++ {
		j, err := newQCrankJob(sz, root, i)
		if err != nil {
			return err
		}
		var res *backend.Result
		settle()
		simD, err := timed(func() error { var err error; res, err = backend.Run(j.c, j.config()); return err })
		b.attempt(err)
		if err != nil {
			continue
		}
		sim = append(sim, secs(simD))
		jobs = append(jobs, done{j, res.Counts})
		if i < kinds {
			var reps sample
			for r := 0; r < codecReps; r++ {
				d, err := j.codec(sz, res.Counts)
				b.attempt(err)
				if err != nil {
					return err
				}
				reps = append(reps, ms(d))
			}
			codec = append(codec, reps.median())
		}
	}
	var corr sample
	for _, d := range jobs {
		if b.corrupted("qcrank.reconstruction") {
			d.job.img.Pix[0] = -d.job.img.Pix[0] + 3
			d.job.img.Pix[1] = -d.job.img.Pix[1] - 3
		}
		m, err := d.job.decode(d.counts)
		corr = append(corr, m.Correlation)
		b.verify("qcrank.reconstruction", err)
	}
	if len(sim) == 0 {
		return fmt.Errorf("qcrank: no job completed")
	}
	b.slot(slotMain, msMetric(sim.p50Metric("simulate_s", "s")))
	b.slot(slotSecond, valueMetric("codec_ms", codec.mean(), "ms", fmt.Sprintf("mean over %d image kinds of p50 of %d", len(codec), codecReps), len(codec)*codecReps))
	b.e2eAdd(corr.p50Metric("reconstruction_correlation", "corr"))
	return nil
}

func qcrankTraced(b *bench, sz qcrankSize, root *qmath.RNG) error {
	t := &tracer{rec: b.rec}
	j, err := newQCrankJob(sz, root, 1)
	if err != nil {
		return err
	}
	var res *backend.Result
	settle()
	du, err := timed(func() error { var err error; res, err = backend.Run(j.c, j.config()); return err })
	b.attempt(err)
	if err != nil {
		return err
	}
	var comp *compiled
	var counts sampling.Counts
	settle()
	dt, err := timed(func() error {
		return b.rec.do("bench.job", 0, 1, func(id int) error {
			var err error
			if comp, err = t.compile(1, id, j.c, kernel.Options{FusionWindow: qcrankFusion}, 0); err != nil {
				return err
			}
			_, counts, err = t.simulate(1, id, comp, b.nproc, j.plan.Shots, j.seed)
			return err
		})
	})
	b.attempt(err)
	if err != nil {
		return err
	}
	ref := res.Counts
	if b.corrupted("trace.identical") {
		ref = perturbCounts(ref)
	}
	b.verify("trace.identical", countsEqual(ref, counts))
	_, qerr := j.decode(counts)
	b.verify("qcrank.reconstruction", qerr)
	if err := t.speedupProbe(2, comp, b.nproc); err != nil {
		return err
	}
	b.layerMetrics(t)
	b.layerAdd(overheadMetric(dt, du))
	return nil
}

// --- expect: exact expectation, compile-once sweeps, gradients ---

type expectSize struct {
	qftQubits           int
	sweepQubits, layers int
	points              int
	gradQubits          int
	gradLayers          int
}

func expectSizeFor(smoke bool) expectSize {
	if smoke {
		return expectSize{qftQubits: 10, sweepQubits: 8, layers: 2, points: 4, gradQubits: 6, gradLayers: 1}
	}
	return expectSize{qftQubits: 22, sweepQubits: 20, layers: 4, points: 16, gradQubits: 16, gradLayers: 2}
}

// TFIM couplings of every expect Hamiltonian.
const tfimJ, tfimG = 1.0, 0.7

// qftBasisCircuit prepares basis state |x⟩ and applies the reversed QFT.
func qftBasisCircuit(n int, x uint64) (*circuit.Circuit, error) {
	prep := circuit.New(n, 0)
	for q := 0; q < n; q++ {
		if x>>uint(q)&1 == 1 {
			prep.X(q)
		}
	}
	f, err := qft.Circuit(n, true)
	if err != nil {
		return nil, err
	}
	return prep.Compose(f)
}

// qftTFIMClosedForm is ⟨TFIM⟩ on QFT|x⟩: the state is a product of
// equatorial qubits with phases 2πx/2^(j+1), so every ZZ term vanishes
// and ⟨X⟩ = cos of the phase.
func qftTFIMClosedForm(n int, x uint64, g float64) float64 {
	v := 0.0
	for j := 0; j < n; j++ {
		v -= g * math.Cos(2*math.Pi*float64(x)/math.Exp2(float64(j+1)))
	}
	return v
}

// ansatz is a hardware-efficient ansatz: per layer an RY on every qubit
// and a CX ladder. Angles start at zero; jobs bind them.
func ansatz(n, layers int) *circuit.Circuit {
	c := circuit.New(n, 0)
	c.Name = fmt.Sprintf("hea_%dq_%dl", n, layers)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.RY(0, q)
		}
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
		}
	}
	return c
}

func randomPoint(rng *qmath.RNG, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.Angle()
	}
	return p
}

// gradientPoints mirrors the backend's parameter-shift layout: the base
// point, then θ_j+π/2 and θ_j−π/2 per slot.
func gradientPoints(base []float64) [][]float64 {
	pts := [][]float64{append([]float64(nil), base...)}
	for j := range base {
		plus := append([]float64(nil), base...)
		plus[j] += math.Pi / 2
		minus := append([]float64(nil), base...)
		minus[j] -= math.Pi / 2
		pts = append(pts, plus, minus)
	}
	return pts
}

// expectInputs are one cycle's generated inputs.
type expectInputs struct {
	x      uint64
	qftC   *circuit.Circuit
	points [][]float64
	base   []float64
}

func newExpectInputs(sz expectSize, root *qmath.RNG, sweepC, gradC *circuit.Circuit) (*expectInputs, error) {
	// x sets only the low half of the qubits: X gates there fall inside
	// tile runs, so the plan, its pending permutation and hence the work
	// are the same for every seed.
	in := &expectInputs{x: root.Uint64() & (1<<uint(sz.qftQubits/2) - 1)}
	var err error
	if in.qftC, err = qftBasisCircuit(sz.qftQubits, in.x); err != nil {
		return nil, err
	}
	rng := qmath.NewRNG(root.Uint64())
	for i := 0; i < sz.points; i++ {
		in.points = append(in.points, randomPoint(rng, sweepC.NumParams()))
	}
	in.base = randomPoint(rng, gradC.NumParams())
	return in, nil
}

func expectWarmup(b *bench, _ *qmath.RNG) (func() error, error) {
	sz := expectSizeFor(b.cfg.smoke)
	opts := qgear.RunOptions{Target: backend.TargetNvidia, Workers: b.nproc}
	h := observable.TransverseFieldIsing(sz.qftQubits, tfimJ, tfimG)
	return func() error { _, err := qgear.RunExpectation(warmCircuit(sz.qftQubits, false), h, opts); return err }, nil
}

func runExpect(b *bench) error {
	sz := expectSizeFor(b.cfg.smoke)
	root := qmath.NewRNG(b.cfg.seed)
	opts := qgear.RunOptions{Target: backend.TargetNvidia, Workers: b.nproc}
	hQFT := observable.TransverseFieldIsing(sz.qftQubits, tfimJ, tfimG)
	sweepC, gradC := ansatz(sz.sweepQubits, sz.layers), ansatz(sz.gradQubits, sz.gradLayers)
	hSweep := observable.TransverseFieldIsing(sz.sweepQubits, tfimJ, tfimG)
	hGrad := observable.TransverseFieldIsing(sz.gradQubits, tfimJ, tfimG)
	if err := b.engineSetup(root); err != nil {
		return err
	}
	if b.rec != nil {
		return expectTraced(b, sz, root, opts, sweepC, gradC, hQFT, hSweep, hGrad)
	}
	var expS, sweepMs, gradS, varMs sample
	rng := qmath.NewRNG(root.Uint64())
	t0 := time.Now()
	for i := 0; i == 0 || b.until(t0); i++ {
		in, err := newExpectInputs(sz, root, sweepC, gradC)
		if err != nil {
			return err
		}
		var rq, rs, rg *qgear.Result
		settle()
		dq, err := timed(func() error { var err error; rq, err = qgear.RunExpectation(in.qftC, hQFT, opts); return err })
		b.attempt(err)
		if err == nil {
			expS = append(expS, secs(dq))
		}
		settle()
		ds, errS := timed(func() error { var err error; rs, err = qgear.RunSweep(sweepC, hSweep, in.points, opts); return err })
		b.attempt(errS)
		settle()
		dg, errG := timed(func() error { var err error; rg, err = qgear.RunGradient(gradC, hGrad, in.base, opts); return err })
		b.attempt(errG)
		if errS == nil && errG == nil {
			sweepMs = append(sweepMs, ms(ds)/float64(len(in.points)))
			gradS = append(gradS, secs(dg))
			varMs = append(varMs, ms(ds+dg)/float64(len(in.points)+2*len(in.base)+1))
		}

		// Checks, outside the timed calls.
		if err == nil {
			want := qftTFIMClosedForm(sz.qftQubits, in.x, tfimG)
			if b.corrupted("expect.qft_closed_form") {
				want += 1e-6
			}
			b.verify("expect.qft_closed_form", errf(math.Abs(*rq.ExpValue-want) <= 1e-9,
				"<TFIM> = %.15g, closed form %.15g", *rq.ExpValue, want))
		}
		if errS == nil {
			b.verify("expect.sweep_point_standalone", checkSweepPoint(b, sweepC, hSweep, in.points, rs.SweepValues, rng, opts))
		}
		if errG == nil {
			b.verify("expect.gradient_finite_diff", checkGradientFD(b, gradC, hGrad, in.base, rg.Gradient, rng, opts))
		}
	}
	if len(expS) == 0 || len(varMs) == 0 {
		return fmt.Errorf("expect: no job completed")
	}
	b.slot(slotMain, msMetric(expS.p50Metric("expect_s", "s")))
	b.e2eAdd(sweepMs.p50Metric("sweep_point_ms", "ms"))
	b.e2eAdd(gradS.p50Metric("gradient_s", "s"))
	b.slot(slotSecond, varMs.p50Metric("variational_point_ms", "ms"))
	return nil
}

// checkSweepPoint re-runs one sweep point as a standalone expectation
// job; the values must agree bit for bit.
func checkSweepPoint(b *bench, c *circuit.Circuit, h *observable.Hamiltonian, points [][]float64, got []float64, rng *qmath.RNG, opts qgear.RunOptions) error {
	i := rng.Intn(len(points))
	bound, err := c.BindParams(points[i])
	if err != nil {
		return err
	}
	r, err := qgear.RunExpectation(bound, h, opts)
	if err != nil {
		return err
	}
	want := *r.ExpValue
	if b.corrupted("expect.sweep_point_standalone") {
		want = math.Nextafter(want, math.Inf(1))
	}
	return errf(math.Float64bits(got[i]) == math.Float64bits(want),
		"sweep point %d = %.17g, standalone %.17g", i, got[i], want)
}

// checkGradientFD compares one gradient entry with a central finite
// difference.
func checkGradientFD(b *bench, c *circuit.Circuit, h *observable.Hamiltonian, base, grad []float64, rng *qmath.RNG, opts qgear.RunOptions) error {
	const step, tol = 1e-4, 1e-6
	j := rng.Intn(len(base))
	eval := func(delta float64) (float64, error) {
		p := append([]float64(nil), base...)
		p[j] += delta
		bound, err := c.BindParams(p)
		if err != nil {
			return 0, err
		}
		r, err := qgear.RunExpectation(bound, h, opts)
		if err != nil {
			return 0, err
		}
		return *r.ExpValue, nil
	}
	plus, err := eval(step)
	if err != nil {
		return err
	}
	minus, err := eval(-step)
	if err != nil {
		return err
	}
	fd := (plus - minus) / (2 * step)
	if b.corrupted("expect.gradient_finite_diff") {
		fd += 1e-3
	}
	return errf(math.Abs(grad[j]-fd) <= tol, "gradient[%d] = %.12g, finite difference %.12g", j, grad[j], fd)
}

func expectTraced(b *bench, sz expectSize, root *qmath.RNG, opts qgear.RunOptions,
	sweepC, gradC *circuit.Circuit, hQFT, hSweep, hGrad *observable.Hamiltonian) error {
	t := &tracer{rec: b.rec}
	in, err := newExpectInputs(sz, root, sweepC, gradC)
	if err != nil {
		return err
	}
	var rq, rs, rg *qgear.Result
	settle()
	du, err := timed(func() error {
		var err error
		if rq, err = qgear.RunExpectation(in.qftC, hQFT, opts); err != nil {
			return err
		}
		if rs, err = qgear.RunSweep(sweepC, hSweep, in.points, opts); err != nil {
			return err
		}
		rg, err = qgear.RunGradient(gradC, hGrad, in.base, opts)
		return err
	})
	b.attempt(err)
	if err != nil {
		return err
	}
	var comp *compiled
	var vq float64
	var vs, vg []float64
	settle()
	dt, err := timed(func() error {
		err := b.rec.do("bench.job", 0, 1, func(id int) error {
			var err error
			if comp, err = t.compile(1, id, in.qftC, kernel.Options{}, 0); err != nil {
				return err
			}
			vq, err = t.expectation(1, id, comp, hQFT, b.nproc)
			return err
		})
		if err != nil {
			return err
		}
		if err := b.rec.do("bench.job", 0, 2, func(id int) error {
			var err error
			vs, err = t.sweep(2, id, sweepC, hSweep, in.points, b.nproc)
			return err
		}); err != nil {
			return err
		}
		return b.rec.do("bench.job", 0, 3, func(id int) error {
			var err error
			vg, err = t.sweep(3, id, gradC, hGrad, gradientPoints(in.base), b.nproc)
			return err
		})
	})
	b.attempt(err)
	if err != nil {
		return err
	}
	want := *rq.ExpValue
	if b.corrupted("trace.identical") {
		want = math.Nextafter(want, 0)
	}
	ident := errf(math.Float64bits(vq) == math.Float64bits(want), "QFT <H> replay %.17g, API %.17g", vq, want)
	for i := range vs {
		if ident == nil && math.Float64bits(vs[i]) != math.Float64bits(rs.SweepValues[i]) {
			ident = fmt.Errorf("sweep point %d replay %.17g, API %.17g", i, vs[i], rs.SweepValues[i])
		}
	}
	for j := range rg.Gradient {
		if g := (vg[1+2*j] - vg[2+2*j]) / 2; ident == nil && math.Float64bits(g) != math.Float64bits(rg.Gradient[j]) {
			ident = fmt.Errorf("gradient %d replay %.17g, API %.17g", j, g, rg.Gradient[j])
		}
	}
	b.verify("trace.identical", ident)
	if err := t.speedupProbe(4, comp, b.nproc); err != nil {
		return err
	}
	b.layerMetrics(t)
	b.layerAdd(overheadMetric(dt, du))
	return nil
}

// --- shared helpers ---

// settle collects garbage and returns freed memory to the OS before a
// timed job, so every job starts from the same heap and resident set: the
// previous job's garbage costs no GC time inside the next job's timing,
// and the RSS peak is the largest single job's footprint rather than
// depending on where freed spans happen to lie.
func settle() { debug.FreeOSMemory() }

// msMetric converts a seconds metric to milliseconds, keeping its name.
func msMetric(m metric) metric {
	m.Value *= 1e3
	m.Unit = "ms"
	ms := make([]float64, len(m.Samples))
	for i, v := range m.Samples {
		ms[i] = v * 1e3
	}
	m.Samples = ms
	return m
}

// overheadMetric is the traced replay's wall time over the public API's
// for the same jobs, minus one.
func overheadMetric(traced, untraced time.Duration) metric {
	return valueMetric("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1, "frac", "ratio", 2)
}

func countsEqual(want, got sampling.Counts) error {
	if len(want) != len(got) {
		return fmt.Errorf("counts differ: %d outcomes vs %d", len(want), len(got))
	}
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("counts differ at outcome %d: %d vs %d", k, v, got[k])
		}
	}
	return nil
}

// perturbCounts returns a copy of c with one shot moved between
// outcomes (tests corrupt references with it).
func perturbCounts(c sampling.Counts) sampling.Counts {
	out := make(sampling.Counts, len(c)+1)
	for k, v := range c {
		out[k] = v
	}
	for k := range out {
		out[k]--
		if out[k] == 0 {
			delete(out, k)
		}
		break
	}
	out[^uint64(0)]++
	return out
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
