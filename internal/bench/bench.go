// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§3, Figs. 1 and 4–6, Tables 1
// and 2, Appendix C, Theorem B.3). Each experiment combines:
//
//   - measured runs of the real Go engine at locally feasible sizes
//     (the 21 GB / 24-core box replaces the Perlmutter node), and
//   - modeled paper-scale points from the calibrated hardware model
//     (internal/cluster), so the printed series cover the paper's
//     qubit ranges.
//
// The printed output is row/series-oriented: the same numbers the
// paper plots, with paper-vs-measured shape notes. EXPERIMENTS.md is
// generated from these runs.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"qgear/internal/cluster"
	"qgear/internal/qmath"
)

// Point is one (x, y) sample with an optional error bar.
type Point struct {
	X, Y float64
	Err  float64
}

// Series is one labeled curve of an experiment figure.
type Series struct {
	Label  string
	XLabel string
	YLabel string
	Points []Point
}

// Print renders the series as aligned rows.
func (s Series) Print(w io.Writer) {
	fmt.Fprintf(w, "  series %q (%s vs %s)\n", s.Label, s.YLabel, s.XLabel)
	for _, p := range s.Points {
		if p.Err > 0 {
			fmt.Fprintf(w, "    %12.4g  %14.6g  ±%.2g\n", p.X, p.Y, p.Err)
		} else {
			fmt.Fprintf(w, "    %12.4g  %14.6g\n", p.X, p.Y)
		}
	}
}

// Table is a printable table artifact.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Print renders the table with column alignment.
func (t Table) Print(w io.Writer) {
	fmt.Fprintf(w, "  table: %s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		fmt.Fprint(w, "    ")
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
}

// Experiment bundles one paper artifact's regenerated data.
type Experiment struct {
	ID     string // e.g. "fig4a"
	Title  string
	Series []Series
	Tables []Table
	Notes  []string
}

// Print renders the experiment.
func (e Experiment) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
	for _, s := range e.Series {
		s.Print(w)
	}
	for _, t := range e.Tables {
		t.Print(w)
	}
	for _, n := range e.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner configures and executes experiments.
type Runner struct {
	// Model is the paper-scale hardware model (defaults to Perlmutter).
	Model *cluster.Cluster
	// Seed drives all randomness.
	Seed uint64
	// Large widens the measured local sweeps (slower, closer shapes);
	// enabled by the QGEAR_LARGE=1 environment or -qgear.large flag in
	// benches.
	Large bool
	// Workers caps the GPU-stand-in parallelism (0 = NumCPU).
	Workers int
	// JSONDir, when set, makes machine-readable experiments (the
	// tiling ablation) write BENCH_*.json files there.
	JSONDir string
}

// NewRunner returns a Runner with the Perlmutter model.
func NewRunner(seed uint64) *Runner {
	return &Runner{Model: cluster.Perlmutter(), Seed: seed}
}

// rng derives a deterministic stream per experiment.
func (r *Runner) rng(salt uint64) *qmath.RNG { return qmath.NewRNG(r.Seed*1315423911 + salt) }

// measure times fn once and returns seconds.
func measure(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// measureMedian runs fn reps times and returns the median wall time:
// for millisecond-scale work one timing is at the mercy of a single
// GC cycle or scheduler hiccup, the median of several is not.
func measureMedian(reps int, fn func() error) (float64, error) {
	ts := make([]float64, reps)
	for i := range ts {
		sec, err := measure(fn)
		if err != nil {
			return 0, err
		}
		ts[i] = sec
	}
	sort.Float64s(ts)
	return ts[reps/2], nil
}

// fitExponentBase2 returns b from a least-squares fit y ≈ a·2^(b·x) —
// used to verify the ~2^n scaling claims.
func fitExponentBase2(points []Point) float64 {
	n := float64(len(points))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range points {
		ly := math.Log2(p.Y)
		sx += p.X
		sy += ly
		sxx += p.X * p.X
		sxy += p.X * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// Registry maps experiment ids to their runners.
func (r *Runner) Registry() map[string]func() (Experiment, error) {
	return map[string]func() (Experiment, error){
		"fig1":   r.Fig1,
		"fig4a":  r.Fig4a,
		"fig4b":  r.Fig4b,
		"fig4c":  r.Fig4c,
		"fig5":   r.Fig5,
		"fig6":   r.Fig6,
		"table1": r.Table1,
		"table2": r.Table2,
		"appC":   r.AppendixC,
		"thmB3":  r.TheoremB3,
		"mqpu":   r.Mqpu,
		"tiling": r.Tiling,
	}
}

// IDs returns the experiment ids in stable order.
func (r *Runner) IDs() []string {
	reg := r.Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunAll executes every experiment and prints it to w.
func (r *Runner) RunAll(w io.Writer) error {
	for _, id := range r.IDs() {
		exp, err := r.Registry()[id]()
		if err != nil {
			return fmt.Errorf("bench: %s: %w", id, err)
		}
		exp.Print(w)
	}
	return nil
}

// Run executes one experiment by id and prints it to w.
func (r *Runner) Run(id string, w io.Writer) error {
	fn, ok := r.Registry()[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have: %s)", id, strings.Join(r.IDs(), ", "))
	}
	exp, err := fn()
	if err != nil {
		return fmt.Errorf("bench: %s: %w", id, err)
	}
	exp.Print(w)
	return nil
}
