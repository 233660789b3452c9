package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's child
// processes (triad and set-up probes), as the benchmark binary does.
func TestMain(m *testing.M) {
	if code, ok := childMain(os.Args[1:]); ok {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the tests hold the output
// to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smokeRun runs one workload at smoke size and returns the exit code,
// the final JSON line and the report.
func smokeRun(t *testing.T, workload string, trace bool, corrupt string) (int, resultLine, report) {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 1.5, trace: trace, smoke: true, outDir: t.TempDir(), corrupt: corrupt}
	var out bytes.Buffer
	code := execute(cfg, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not the result JSON: %v\n%s", workload, err, out.String())
	}
	stem := workload + "-seed7-trace0"
	if trace {
		stem = workload + "-seed7-trace1"
	}
	data, err := os.ReadFile(filepath.Join(cfg.outDir, "report-"+stem+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if trace {
		if _, err := os.Stat(rep.Trace); err != nil {
			t.Fatalf("%s: trace file: %v", workload, err)
		}
	}
	return code, line, rep
}

// e2eNames are the end-to-end metrics each workload prints by name,
// each from at least one sample.
var e2eNames = map[string][]string{
	"randu24": {"setup_s", "simulate_s", "mgpu_simulate_s", "peak_rss_mib", "failed_frac"},
	"qcrank":  {"setup_s", "simulate_s", "codec_ms", "peak_rss_mib", "failed_frac"},
	"expect":  {"setup_s", "expect_s", "sweep_point_ms", "gradient_s", "variational_point_ms", "peak_rss_mib", "failed_frac"},
	"serve": {"setup_s", "latency_p50_ms.low", "latency_tail_ms.low", "latency_p50_ms.high",
		"latency_tail_ms.high", "max_rate_rps", "peak_rss_mib", "failed_frac"},
}

// layerNames are the per-layer metrics each workload's traced run
// measures on its own path beyond the ones every workload shares
// (BENCHMARK.json).
var layerNames = map[string][]string{
	"randu24": {"statevec.readout_s", "statevec.new_s", "sampling.sample_s", "sampling.shots_per_s",
		"mgpu.run_s", "mgpu.exchange_wait_s", "mgpu.exchanges", "mgpu.bytes_sent", "mgpu.exchange_gbps"},
	"qcrank": {"statevec.readout_s", "sampling.sample_s", "sampling.shots_per_s"},
	"expect": {"kernel.bind_s", "observable.reduce_s", "observable.terms", "observable.term_ms",
		"observable.gbps", "observable.bw_frac"},
	"serve": {"kernel.bind_s", "observable.reduce_s", "sampling.sample_s", "statevec.readout_s",
		"service.submit_ms", "service.fetch_ms", "service.queue_wait_ms", "service.queue_wait_tail_ms",
		"service.execute_ms", "service.execute_tail_ms", "service.result_hit_ratio",
		"service.singleflight_ratio", "service.plan_hit_ratio", "service.rebinds", "service.batch_mean",
		"service.rejected", "store.open_s", "store.spills", "store.hits", "store.load_ms",
		"loadgen.lag_ms", "loadgen.detect_ms"},
}

func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			code, line, rep := smokeRun(t, w.Name, trace, "")
			if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, %+v", w.Name, trace, code, line)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result line, want %d", w.Name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			names := e2eNames[w.Name]
			reported := rep.EndToEnd
			if trace {
				names = layerNames[w.Name]
				reported = rep.PerLayer
			}
			byName := map[string]metric{}
			for _, m := range reported {
				byName[m.Name] = m
			}
			for _, n := range names {
				if m, ok := byName[n]; !ok || m.Unit == "" || m.Stat == "" || m.N == 0 {
					t.Errorf("%s trace=%v: report lacks %s (%+v)", w.Name, trace, n, m)
				}
			}
			if rep.Host.Nproc < 1 || rep.Host.TriadGBps <= 0 || rep.Host.TriadArrayBytes <= 0 ||
				rep.Host.GoVersion == "" || rep.Host.Seed != 7 {
				t.Errorf("%s: incomplete host descriptor %+v", w.Name, rep.Host)
			}
			if trace && len(rep.SelfTime) == 0 {
				t.Errorf("%s: traced run reports no self time", w.Name)
			}
		}
	}
}

// TestChecksFire corrupts each correctness check's reference and
// expects the run to report the failure and exit non-zero.
func TestChecksFire(t *testing.T) {
	cases := []struct {
		workload, check string
		trace           bool
	}{
		{"randu24", "randu24.counts_nvidia_eq_mgpu", false},
		{"randu24", "trace.identical", true},
		{"qcrank", "qcrank.reconstruction", false},
		{"qcrank", "trace.identical", true},
		{"expect", "expect.qft_closed_form", false},
		{"expect", "expect.sweep_point_standalone", false},
		{"expect", "expect.gradient_finite_diff", false},
		{"expect", "trace.identical", true},
		{"serve", "serve.repeat_identical", false},
		{"serve", "serve.library_match", false},
		{"serve", "trace.identical", true},
	}
	for _, c := range cases {
		code, line, rep := smokeRun(t, c.workload, c.trace, c.check)
		if code == 0 || line.Correct || line.Failed == 0 {
			t.Errorf("%s/%s: corrupted reference not caught: exit %d, %+v", c.workload, c.check, code, line)
		}
		fired := false
		for _, s := range rep.Checks {
			if s.Name == c.check && s.Passed < s.Runs {
				fired = true
			}
		}
		if !fired {
			t.Errorf("%s/%s: check did not record a failure: %+v", c.workload, c.check, rep.Checks)
		}
	}
}

func TestTail(t *testing.T) {
	var s sample
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	if v, label := s.tail(); label != "p90" || v != 90 {
		t.Errorf("tail of 1..100 = %v %s, want 90 p90", v, label)
	}
	if v, label := s[:15].tail(); label != "max" || v != 15 {
		t.Errorf("tail of 1..15 = %v %s, want 15 max", v, label)
	}
	if m := s[:4].median(); m != 2.5 {
		t.Errorf("median of 1..4 = %v", m)
	}
}

func TestQFTClosedForm(t *testing.T) {
	if v := qftTFIMClosedForm(24, 0, 0.7); math.Abs(v+16.8) > 1e-12 {
		t.Errorf("closed form at n=24, x=0 = %v, want -16.8", v)
	}
}

func TestHistMedianDelta(t *testing.T) {
	before := "h_bucket{le=\"0.001\"} 2\nh_bucket{le=\"0.002\"} 2\nh_bucket{le=\"+Inf\"} 2\n"
	after := "h_bucket{le=\"0.001\"} 2\nh_bucket{le=\"0.002\"} 6\nh_bucket{le=\"+Inf\"} 6\n"
	v, n := histMedianDelta(before, after, "h")
	if n != 4 || math.Abs(v-0.0015) > 1e-12 {
		t.Errorf("median of delta = %v (n=%d), want 0.0015 (n=4)", v, n)
	}
}

func TestSelfTime(t *testing.T) {
	r := &recorder{t0: time.Now()}
	r.spans = []span{
		{ID: 1, Name: "bench.job", Start: 0, End: 10 * time.Millisecond},
		{ID: 2, Parent: 1, Name: "statevec.Execute", Start: time.Millisecond, End: 7 * time.Millisecond},
		{ID: 3, Parent: 2, Name: "kernel.Inner", Start: 2 * time.Millisecond, End: 3 * time.Millisecond},
	}
	self := r.selfTime()
	for layer, want := range map[string]float64{"bench": 0.004, "statevec": 0.005, "kernel": 0.001} {
		if math.Abs(self[layer]-want) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", layer, self[layer], want)
		}
	}
}
