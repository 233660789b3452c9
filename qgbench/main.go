// Command qgbench is the repository's benchmark. One command runs one of
// four workloads (randu24, qcrank, expect, serve) against the public
// API and the HTTP job service, checks every output, and prints its
// metrics: end-to-end metrics on an untraced run, per-layer metrics on a
// traced run (--trace 1). See README.md for the workloads, the metric
// map and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke shrinks every workload to sizes that finish in seconds; the
	// package tests use it.
	smoke bool
	// outDir receives the report and the Chrome trace.
	outDir string
	// corrupt names a correctness check whose reference is perturbed
	// before comparison, so tests can see that the check fires.
	corrupt string
}

// metric is one printed measurement: value, unit, how many samples it
// summarises and which statistic it is (p50, p93, mean, count, ...).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Stat  string  `json:"stat"`
	// Samples holds the observations behind a median of a few (the
	// report keeps them; the printed line does not).
	Samples []float64 `json:"samples,omitempty"`
}

// check is one correctness check's outcome.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Msg  string `json:"msg,omitempty"`
}

// bench is the state of one invocation.
type bench struct {
	cfg   config
	out   io.Writer
	nproc int
	host  hostInfo
	// rec records spans; nil on untraced runs.
	rec *recorder

	attempted, failed int
	checks            []check
	e2e               []metric // every end-to-end metric of the workload
	layers            []metric // per-layer metrics (traced runs)
	// slots are the end-to-end metrics BENCHMARK.json gates, in ms/s.
	slots map[string]metric
	// peakRSS, when a workload sets it, is the RSS peak it read at the
	// end of its comparable phases; otherwise the peak is read at exit.
	peakRSS float64
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"randu24": runRandu24,
	"qcrank":  runQCrank,
	"expect":  runExpect,
	"serve":   runServe,
}

// Names of the end-to-end metrics every workload reports in its final
// JSON line (BENCHMARK.json "end_to_end").
const (
	slotSetup  = "setup_s"
	slotMain   = "main_p50_ms"
	slotSecond = "second_p50_ms"
	slotRSS    = "peak_rss_mib"
)

// perLayerJSON lists the per-layer metrics a traced run puts in its final
// JSON line (BENCHMARK.json "per_layer"): the ones every workload
// measures on its own path. The report file and the printed table carry
// the full per-layer set.
var perLayerJSON = []string{
	"host.triad_gbps",
	"kernel.transform_s", "kernel.plan_s", "kernel.emitted_instrs", "kernel.fused_groups",
	"kernel.tile_runs", "kernel.global_sweeps", "kernel.bit_swaps", "kernel.perm_swaps",
	"kernel.exchange_segs",
	"statevec.execute_s", "statevec.passes", "statevec.execute_bytes", "statevec.execute_gbps",
	"statevec.execute_bw_frac", "statevec.gate_updates_per_s", "statevec.speedup_at_nproc",
	"statevec.perm_pending",
	"trace.overhead_frac",
}

func main() {
	if code, ok := childMain(os.Args[1:]); ok {
		os.Exit(code)
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "qgbench:", err)
		os.Exit(2)
	}
	os.Exit(execute(cfg, os.Stdout))
}

// childMain runs the binary as one of its own child processes (the
// bandwidth probe or a set-up probe) when args ask for one.
func childMain(args []string) (code int, ok bool) {
	if len(args) == 0 {
		return 0, false
	}
	switch args[0] {
	case triadFlag:
		return triadChild(args[1:]), true
	case setupFlag:
		return setupChild(args[1:]), true
	}
	return 0, false
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("qgbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: randu24 | qcrank | expect | serve")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes (seconds per workload)")
	fs.StringVar(&cfg.outDir, "out-dir", filepath.Join(".bench_build", "qgbench"), "report and trace directory")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if cfg.seconds <= 0 {
		return cfg, errors.New("--seconds must be positive")
	}
	cfg.trace = *trace == 1
	return cfg, nil
}

// execute runs one workload and prints its result; the return value is
// the process exit code (non-zero on any error or failed check).
func execute(cfg config, out io.Writer) int {
	b, err := newBench(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qgbench:", err)
		return 1
	}
	if err := workloads[cfg.workload](b); err != nil {
		fmt.Fprintln(os.Stderr, "qgbench:", err)
		return 1
	}
	if b.peakRSS == 0 {
		b.peakRSS = peakRSSMiB()
	}
	b.slots[slotRSS] = metric{Name: slotRSS, Value: b.peakRSS, Unit: "MiB", N: 1, Stat: "max"}
	b.e2eAdd(b.slots[slotRSS])
	b.e2eAdd(metric{Name: "failed_frac", Value: float64(b.failed) / float64(max(b.attempted, 1)),
		Unit: "frac", N: b.attempted, Stat: "ratio"})
	if err := b.finish(); err != nil {
		fmt.Fprintln(os.Stderr, "qgbench:", err)
		return 1
	}
	if b.failed > 0 || !b.correct() {
		return 1
	}
	return 0
}

func newBench(cfg config, out io.Writer) (*bench, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating output directory: %w", err)
	}
	b := &bench{cfg: cfg, out: out, nproc: runtime.NumCPU(), slots: map[string]metric{}}
	host, err := describeHost(cfg)
	if err != nil {
		return nil, err
	}
	b.host = host
	if cfg.trace {
		b.rec = newRecorder()
	}
	b.printf("host %s", mustJSON(host))
	return b, nil
}

func (b *bench) printf(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// attempt counts one operation and whether it failed.
func (b *bench) attempt(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.printf("FAILED: %v", err)
	}
}

// verify records a correctness check; a failed check counts as a failed
// operation.
func (b *bench) verify(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Msg = err.Error()
	}
	b.checks = append(b.checks, c)
	b.attempt(err)
}

// corrupted reports whether the named check's reference should be
// perturbed (tests only).
func (b *bench) corrupted(name string) bool { return b.cfg.corrupt == name }

func (b *bench) correct() bool {
	for _, c := range b.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// finite replaces a statistic of an empty sample (NaN) by 0 with n=0,
// so every named metric is always emitted and encodable.
func finite(m metric) metric {
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		m.Value, m.N, m.Stat = 0, 0, "none"
	}
	return m
}

func (b *bench) e2eAdd(m metric) {
	m = finite(m)
	b.e2e = append(b.e2e, m)
	b.printf("e2e %-26s %14.6g %-6s (%s of n=%d)", m.Name, m.Value, m.Unit, m.Stat, m.N)
}

func (b *bench) layerAdd(m metric) {
	b.layers = append(b.layers, finite(m))
}

// slot records m, printed and reported under its workload-specific
// name, as the gated end-to-end metric name of the final JSON line.
func (b *bench) slot(name string, m metric) {
	m = finite(m)
	b.e2eAdd(m)
	s := m
	s.Name = name
	b.slots[name] = s
}

// report is the on-disk record of one run.
type report struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Host     hostInfo           `json:"host"`
	EndToEnd []metric           `json:"end_to_end"`
	PerLayer []metric           `json:"per_layer,omitempty"`
	SelfTime map[string]float64 `json:"self_time_s,omitempty"`
	Checks   []checkSummary     `json:"checks"`
	Trace    string             `json:"trace_file,omitempty"`
}

// checkSummary aggregates the runs of one named check.
type checkSummary struct {
	Name       string `json:"name"`
	Runs       int    `json:"runs"`
	Passed     int    `json:"passed"`
	FirstError string `json:"first_error,omitempty"`
}

func summarizeChecks(checks []check) []checkSummary {
	var out []checkSummary
	index := map[string]int{}
	for _, c := range checks {
		i, ok := index[c.Name]
		if !ok {
			i = len(out)
			index[c.Name] = i
			out = append(out, checkSummary{Name: c.Name})
		}
		out[i].Runs++
		if c.OK {
			out[i].Passed++
		} else if out[i].FirstError == "" {
			out[i].FirstError = c.Msg
		}
	}
	return out
}

// resultLine is the last line of standard output: whether every check
// passed, operations attempted and failed, and the metrics.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b *bench) finish() error {
	stem := fmt.Sprintf("%s-seed%d-trace%d", b.cfg.workload, b.cfg.seed, btoi(b.cfg.trace))
	rep := report{
		Workload: b.cfg.workload, Seed: b.cfg.seed, Seconds: b.cfg.seconds, Traced: b.cfg.trace,
		Host: b.host, EndToEnd: b.e2e, Checks: summarizeChecks(b.checks),
	}
	line := resultLine{Correct: b.correct(), Attempted: b.attempted, Failed: b.failed, Metrics: map[string]jsonMetric{}}
	if b.cfg.trace {
		b.layerAdd(metric{Name: "host.triad_gbps", Value: b.host.TriadGBps, Unit: "GB/s", N: b.host.TriadReps, Stat: "best"})
		self := b.rec.selfTime()
		rep.SelfTime = self
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			b.printf("self %-10s %10.4f s", l, self[l])
		}
		sort.Slice(b.layers, func(i, j int) bool { return b.layers[i].Name < b.layers[j].Name })
		for _, m := range b.layers {
			b.printf("layer %-30s %14.6g %-6s (%s of n=%d)", m.Name, m.Value, m.Unit, m.Stat, m.N)
		}
		rep.PerLayer = b.layers
		rep.Trace = filepath.Join(b.cfg.outDir, "trace-"+stem+".json")
		if err := b.rec.writeChrome(rep.Trace); err != nil {
			return err
		}
		byName := map[string]metric{}
		for _, m := range b.layers {
			byName[m.Name] = m
		}
		for _, name := range perLayerJSON {
			m, ok := byName[name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", name)
			}
			line.Metrics[name] = jsonMetric{Value: m.Value, Unit: m.Unit}
		}
	} else {
		for _, name := range []string{slotSetup, slotMain, slotSecond, slotRSS} {
			m, ok := b.slots[name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", name)
			}
			line.Metrics[name] = jsonMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	for _, c := range rep.Checks {
		status := fmt.Sprintf("%d/%d ok", c.Passed, c.Runs)
		if c.FirstError != "" {
			status += "; first failure: " + c.FirstError
		}
		b.printf("check %-32s %s", c.Name, status)
	}
	if err := writeJSONFile(filepath.Join(b.cfg.outDir, "report-"+stem+".json"), rep); err != nil {
		return err
	}
	fmt.Fprintln(b.out, mustJSON(line))
	return nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed, marshalable types reach here
	}
	return string(data)
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

// timed runs fn and returns its wall time.
func timed(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// until reports whether the run's measured window, started at t0, is
// still open.
func (b *bench) until(t0 time.Time) bool {
	return time.Since(t0).Seconds() < b.cfg.seconds
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// secs converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }

// errf builds a check error only when cond is false.
func errf(cond bool, format string, args ...any) error {
	if cond {
		return nil
	}
	return fmt.Errorf(format, args...)
}
