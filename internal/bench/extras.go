package bench

import (
	"bytes"
	"fmt"
	"runtime"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/cluster"
	"qgear/internal/hdf5"
	"qgear/internal/qcrank"
	"qgear/internal/qimage"
	"qgear/internal/randcirc"
	"qgear/internal/tensorenc"
)

// backendWorkers reports the default GPU-stand-in parallelism.
func backendWorkers() int { return runtime.NumCPU() }

// localImageConfigs are the measured Fig. 5/6 mini-workloads: scaled
// versions of the paper's images small enough for local state vectors
// (total qubits = addr + data ≤ 16).
// The address splits put the circuits at 16-18 total qubits — large
// enough that the parallel engine is past its cache-locality
// crossover, mirroring how GPU advantage needs states past the
// kernel-launch floor.
var localImageConfigs = []struct {
	kind string
	w, h int
	addr int
}{
	{"finger", 32, 20, 6},   // 640 px  -> 16 qubits
	{"shoes", 40, 32, 7},    // 1280 px -> 17 qubits
	{"building", 48, 48, 8}, // 2304 px -> 17 qubits
	{"zebra", 64, 40, 8},    // 2560 px -> 18 qubits
}

// localShotsPerAddr keeps measured sampling fast; the paper's 3,000 is
// used in the modeled series.
const localShotsPerAddr = 200

// Fig5 regenerates Fig. 5: QCrank image-encoding simulation time,
// Qiskit-on-CPU vs Q-GEAR-on-1-GPU, vs image size — measured at mini
// scale, modeled at Table 2 scale with ~5% error bars.
func (r *Runner) Fig5() (Experiment, error) {
	exp := Experiment{ID: "fig5", Title: "QCrank image encoding: CPU node vs 1 GPU vs image size"}

	mcpu := Series{Label: "measured: cpu-serial", XLabel: "pixels", YLabel: "seconds"}
	mgpu := Series{Label: "measured: gpu-parallel", XLabel: "pixels", YLabel: "seconds"}
	for _, cfg := range localImageConfigs {
		img, err := qimage.Synthetic(cfg.kind, cfg.w, cfg.h, r.Seed)
		if err != nil {
			return exp, err
		}
		plan, err := qcrank.NewPlan(img.Pixels(), cfg.addr, localShotsPerAddr)
		if err != nil {
			return exp, err
		}
		c, err := qcrank.Encode(img.Pix, plan, true)
		if err != nil {
			return exp, err
		}
		for _, tgt := range []backend.Target{backend.TargetAer, backend.TargetNvidia} {
			// Serial unfused CPU baseline vs parallel+fused GPU path —
			// the same two mechanisms the paper's Fig. 5 compares.
			cfg := backend.Config{Target: tgt, Workers: 1, Shots: plan.Shots, Seed: r.Seed}
			if tgt == backend.TargetNvidia {
				cfg.Workers = r.Workers
				cfg.FusionWindow = 4
			}
			sec, err := measure(func() error {
				res, err := backend.Run(c, cfg)
				if err != nil {
					return err
				}
				_, _, err = qcrank.DecodeCounts(res.Counts, plan)
				return err
			})
			if err != nil {
				return exp, err
			}
			p := Point{X: float64(img.Pixels()), Y: sec}
			if tgt == backend.TargetAer {
				mcpu.Points = append(mcpu.Points, p)
			} else {
				mgpu.Points = append(mgpu.Points, p)
			}
		}
	}
	exp.Series = append(exp.Series, mcpu, mgpu)

	// Modeled Table 2 scale. QCrank circuits run fp64 (Table 1) and
	// their gate count is the pixel count (1 CX + 1 Ry per pixel).
	rows, err := qcrank.Table2()
	if err != nil {
		return exp, err
	}
	jrng := r.rng(5)
	mc := Series{Label: "model: qiskit CPU node", XLabel: "pixels", YLabel: "minutes"}
	mg := Series{Label: "model: q-gear 1 GPU", XLabel: "pixels", YLabel: "minutes"}
	// One point per distinct image size; the zebra point uses the
	// 15-address-qubit split (Table 2's last row), whose 98M shots
	// push the GPU into its serial-sampling regime — the mechanism
	// behind the paper's shrinking speedup.
	for _, row := range []qcrank.Table2Row{rows[0], rows[1], rows[2], rows[5]} {
		plan, err := qcrank.NewPlan(row.GrayPixels, row.AddrQubits, qcrank.DefaultShotsPerAddress)
		if err != nil {
			return exp, err
		}
		w := cluster.Workload{
			Qubits:    plan.TotalQubits(),
			Gates:     2 * plan.PaddedPixels,
			Precision: cluster.FP64,
			Shots:     plan.Shots,
		}
		cpuSec, err := r.Model.EstimateCPUSeconds(w)
		if err != nil {
			return exp, err
		}
		gpuSec, err := r.Model.EstimateGPUSeconds(w, 1)
		if err != nil {
			return exp, err
		}
		mc.Points = append(mc.Points, Point{X: float64(row.GrayPixels), Y: r.Model.Jitter(cpuSec, jrng) / 60, Err: cpuSec * 0.05 / 60})
		mg.Points = append(mg.Points, Point{X: float64(row.GrayPixels), Y: r.Model.Jitter(gpuSec, jrng) / 60, Err: gpuSec * 0.05 / 60})
	}
	exp.Series = append(exp.Series, mc, mg)
	firstRatio := mc.Points[0].Y / mg.Points[0].Y
	lastRatio := mc.Points[len(mc.Points)-1].Y / mg.Points[len(mg.Points)-1].Y
	exp.Notes = append(exp.Notes,
		fmt.Sprintf("model speedup shrinks with image size: %.0fx at %dk px -> %.1fx at %dk px (paper: ~100x shrinking; GPU samples serially, CPU across 128 cores)",
			firstRatio, int(mc.Points[0].X/1000), lastRatio, int(mc.Points[len(mc.Points)-1].X/1000)),
		"running time scales with pixel count because CX count equals pixel count (paper Fig. 5 caption)")
	return exp, nil
}

// Fig6 regenerates the Fig. 6 reconstruction benchmark: encode each
// (synthetic) image, sample, decode, and report the residual metrics
// of the per-image panels.
func (r *Runner) Fig6() (Experiment, error) {
	exp := Experiment{ID: "fig6", Title: "QCrank image reconstruction quality (shot-limited)"}
	tbl := Table{
		Title:  "reconstruction metrics per image (synthetic stand-ins, scaled sizes)",
		Header: []string{"image", "pixels", "qubits", "2q-gates", "shots", "MAE", "RMSE", "max|err|", "corr"},
	}
	for _, cfg := range localImageConfigs {
		img, err := qimage.Synthetic(cfg.kind, cfg.w, cfg.h, r.Seed)
		if err != nil {
			return exp, err
		}
		shotsPerAddr := 3000 // the paper's s for the quality benchmark
		plan, err := qcrank.NewPlan(img.Pixels(), cfg.addr, shotsPerAddr)
		if err != nil {
			return exp, err
		}
		c, err := qcrank.Encode(img.Pix, plan, true)
		if err != nil {
			return exp, err
		}
		res, err := backend.Run(c, backend.Config{Target: backend.TargetNvidia, Workers: r.Workers, FusionWindow: 4, Shots: plan.Shots, Seed: r.Seed})
		if err != nil {
			return exp, err
		}
		vals, missing, err := qcrank.DecodeCounts(res.Counts, plan)
		if err != nil {
			return exp, err
		}
		if len(missing) > 0 {
			return exp, fmt.Errorf("fig6: %s: %d unsampled addresses", cfg.kind, len(missing))
		}
		reco := img.Clone()
		copy(reco.Pix, vals)
		m, err := qimage.Compare(img, reco)
		if err != nil {
			return exp, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			cfg.kind,
			fmt.Sprintf("%d", img.Pixels()),
			fmt.Sprintf("%d", plan.TotalQubits()),
			fmt.Sprintf("%d", plan.TwoQubitGates()),
			fmt.Sprintf("%d", plan.Shots),
			fmt.Sprintf("%.4f", m.MAE),
			fmt.Sprintf("%.4f", m.RMSE),
			fmt.Sprintf("%.4f", m.MaxAbsErr),
			fmt.Sprintf("%.4f", m.Correlation),
		})
	}
	exp.Tables = append(exp.Tables, tbl)
	exp.Notes = append(exp.Notes,
		"residuals are shot-noise limited: per-pixel sigma ~ 1/sqrt(shots/address) (paper Fig. 6 residual panels show the same +-0.05 band at s=3000)",
		"images are procedural stand-ins at reduced size; QCrank accuracy depends only on shot statistics, not content")
	return exp, nil
}

// Table1 regenerates Table 1: the experiment-configuration summary.
func (r *Runner) Table1() (Experiment, error) {
	exp := Experiment{ID: "table1", Title: "experiment configurations (paper Table 1)"}
	exp.Tables = append(exp.Tables, Table{
		Title:  "Q-GEAR experiments on CPU/GPU HPC (paper values; reproduced by the listed experiment ids)",
		Header: []string{"task", "objective", "qubits", "max gate depth", "shots", "precision", "input size", "reproduced by"},
		Rows: [][]string{
			{"random entangled circuits", "speed-up analysis", "28-34", "10000", "3000", "fp32/fp64", "100/10k CX-block", "fig4a"},
			{"random entangled circuits", "scalability analysis", "42", "3000", "10000", "fp32", "3000 CX-block", "fig4b"},
			{"QFT transform", "precision performance", "16-33", "528", "100", "fp32/fp64", "65K-8B bits", "fig4c"},
			{"quantum image encoding", "speed-up analysis", "15-25", "98000", "3M-98M", "fp64", "5K-98K pixels", "fig5"},
			{"quantum image encoding", "reconstruction performance", "15-25", "98000", "3M-98M", "fp64", "5K-98K pixels", "fig6, table2"},
		},
	})
	exp.Notes = append(exp.Notes, "hardware columns (EPYC 7763 / A100 / Slingshot-11) are carried by the cluster model (internal/cluster); local measurements run the Go engine on this machine")
	return exp, nil
}

// Table2 regenerates Table 2: QCrank circuit configurations per image.
func (r *Runner) Table2() (Experiment, error) {
	exp := Experiment{ID: "table2", Title: "QCrank circuit configurations (paper Table 2)"}
	rows, err := qcrank.Table2()
	if err != nil {
		return exp, err
	}
	tbl := Table{
		Title:  "derived from image dimensions and address-qubit choices (s=3000 shots/address)",
		Header: []string{"image", "dimensions", "gray pixels", "address qubits", "data qubits", "shots"},
	}
	for _, row := range rows {
		tbl.Rows = append(tbl.Rows, []string{
			row.Image,
			fmt.Sprintf("%dx%d", row.W, row.H),
			fmt.Sprintf("%d", row.GrayPixels),
			fmt.Sprintf("%d", row.AddrQubits),
			fmt.Sprintf("%d", row.DataQubits),
			fmt.Sprintf("%d", row.Shots),
		})
	}
	exp.Tables = append(exp.Tables, tbl)
	return exp, nil
}

// appCReps is how many encodings time each Appendix C point (their
// median is the point).
const appCReps = 7

// AppendixC regenerates the Appendix C claims: tensor-encoding time at
// fixed capacity is nearly independent of circuit complexity, and HDF5
// compression saves substantial space losslessly.
func (r *Runner) AppendixC() (Experiment, error) {
	exp := Experiment{ID: "appC", Title: "HDF5 constant-time encoding and compression (Appendix C)"}
	nCirc := 50
	if r.Large {
		nCirc = 200
	}
	const capacity = 1500
	s := Series{Label: "measured: encode time at fixed capacity", XLabel: "gates per circuit", YLabel: "seconds"}
	var times []float64
	for _, blocks := range []int{20, 100, 500} {
		circs, err := randcirc.GenerateList(10, blocks, nCirc, r.Seed)
		if err != nil {
			return exp, err
		}
		sec, err := measureMedian(appCReps, func() error {
			_, err := tensorenc.Encode(circs, capacity)
			return err
		})
		if err != nil {
			return exp, err
		}
		s.Points = append(s.Points, Point{X: float64(blocks * randcirc.GatesPerBlock), Y: sec})
		times = append(times, sec)
	}
	exp.Series = append(exp.Series, s)
	spread := times[2] / times[0]

	// Compression ratio on a real encoding.
	circs, err := randcirc.GenerateList(10, 200, nCirc, r.Seed)
	if err != nil {
		return exp, err
	}
	enc, err := tensorenc.Encode(circs, capacity)
	if err != nil {
		return exp, err
	}
	f, err := enc.ToHDF5("circuits")
	if err != nil {
		return exp, err
	}
	var plain, comp bytes.Buffer
	if err := f.Save(&plain, hdf5.SaveOptions{Compression: hdf5.CompressionNone}); err != nil {
		return exp, err
	}
	if err := f.Save(&comp, hdf5.SaveOptions{Compression: hdf5.CompressionFlate}); err != nil {
		return exp, err
	}
	saving := 1 - float64(comp.Len())/float64(plain.Len())
	exp.Notes = append(exp.Notes,
		fmt.Sprintf("encode-time spread across 25x gate-count range: %.2fx (paper: 'nearly constant, regardless of circuit complexity')", spread),
		fmt.Sprintf("flate compression saves %.0f%% on the circuit tensors losslessly (paper: 'up to 50%%')", saving*100))
	return exp, nil
}

// TheoremB3 measures the Appendix B scaling theorem on the real
// engine: serial per-gate time grows ~2^n; the parallel engine divides
// it by its worker count.
func (r *Runner) TheoremB3() (Experiment, error) {
	exp := Experiment{ID: "thmB3", Title: "Theorem B.3: serial 2^n scaling vs parallel speedup"}
	serial := Series{Label: "measured: serial seconds/gate", XLabel: "qubits", YLabel: "seconds"}
	qubits := []int{12, 14, 16}
	if r.Large {
		qubits = []int{14, 16, 18, 20}
	}
	const gates = 120
	for _, n := range qubits {
		c, err := randcirc.Generate(randcirc.Spec{Qubits: n, Blocks: gates / 3, Seed: r.Seed})
		if err != nil {
			return exp, err
		}
		sec, err := measure(func() error {
			_, err := backend.Run(c, backend.Config{Target: backend.TargetAer, Workers: 1})
			return err
		})
		if err != nil {
			return exp, err
		}
		serial.Points = append(serial.Points, Point{X: float64(n), Y: sec / gates})
	}
	exp.Series = append(exp.Series, serial)

	// Parallel speedup at a size where the fan-out amortizes.
	n := qubits[len(qubits)-1] + 2
	c, err := randcirc.Generate(randcirc.Spec{Qubits: n, Blocks: 50, Seed: r.Seed})
	if err != nil {
		return exp, err
	}
	speed := Series{Label: "measured: parallel speedup vs workers", XLabel: "workers", YLabel: "speedup"}
	base := 0.0
	for _, w := range []int{1, 2, 4, 8, backendWorkers()} {
		sec, err := measure(func() error {
			_, err := backend.Run(c, backend.Config{Target: backend.TargetNvidia, Workers: w})
			return err
		})
		if err != nil {
			return exp, err
		}
		if w == 1 {
			base = sec
		}
		speed.Points = append(speed.Points, Point{X: float64(w), Y: base / sec})
	}
	exp.Series = append(exp.Series, speed)
	exp.Notes = append(exp.Notes,
		fmt.Sprintf("serial scaling exponent: 2^(%.2f·n) per gate (theorem: 2^n)", fitExponentBase2(serial.Points)),
		fmt.Sprintf("parallel speedup at %d workers: %.1fx on %d qubits (theorem: ~P with P parallel resources)",
			backendWorkers(), speed.Points[len(speed.Points)-1].Y, n))
	return exp, nil
}

// Mqpu regenerates the §3 'nvidia-mqpu' observation: a batch of
// circuits runs faster when the devices act as independent QPUs.
func (r *Runner) Mqpu() (Experiment, error) {
	exp := Experiment{ID: "mqpu", Title: "multi-QPU circuit parallelism (the paper's nvidia-mqpu note)"}
	n := 14
	batchSize := 8
	if r.Large {
		n = 18
	}
	batch := make([]*circuit.Circuit, batchSize)
	for i := range batch {
		c, err := randcirc.Generate(randcirc.Spec{Qubits: n, Blocks: 60, Seed: r.Seed + uint64(i)})
		if err != nil {
			return exp, err
		}
		batch[i] = c
	}
	seqSec, err := measure(func() error {
		_, err := backend.RunBatch(batch, backend.Config{Target: backend.TargetNvidia, Workers: 4})
		return err
	})
	if err != nil {
		return exp, err
	}
	parSec, err := measure(func() error {
		_, err := backend.RunBatch(batch, backend.Config{Target: backend.TargetNvidiaMQPU, Devices: 4, Workers: 16})
		return err
	})
	if err != nil {
		return exp, err
	}
	exp.Series = append(exp.Series, Series{
		Label: "measured: batch wall-clock", XLabel: "mode (1=sequential, 2=mqpu)", YLabel: "seconds",
		Points: []Point{{X: 1, Y: seqSec}, {X: 2, Y: parSec}},
	})
	exp.Notes = append(exp.Notes,
		fmt.Sprintf("4-QPU batch speedup: %.1fx over sequential on %d circuits x %d qubits (paper: 'significantly improves ... by leveraging parallelism across four GPUs')",
			seqSec/parSec, batchSize, n))
	return exp, nil
}
