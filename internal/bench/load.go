package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"qgear/internal/circuit"
	"qgear/internal/observable"
	"qgear/internal/service"
)

// The percentile load harness: a multi-client HTTP load generator for
// the serving layer that mixes simulate and expectation jobs, reports
// per-kind latency percentiles, and cross-checks the server's
// /metrics exposition against /v1/stats before and after the run. CI
// gates on its JSON report (BENCH_load.json), so a regression in
// either the serving path or the telemetry surface fails the build.

// LoadConfig sizes one load run.
type LoadConfig struct {
	// Addr is the base URL of a running server; empty runs an embedded
	// server configured by Service.
	Addr    string
	Service service.Config
	// Clients is the number of concurrent clients; each submits
	// Requests jobs sequentially.
	Clients  int
	Requests int
	// Qubits is the GHZ workload width; Shots the per-simulate-job
	// sample count (0 = probabilities only).
	Qubits int
	Shots  int
	// ExpectEvery makes every ExpectEvery-th request of a client an
	// expectation-value job over a ZZ-chain Hamiltonian (0 disables the
	// mixed workload).
	ExpectEvery int
	// SeedCycle is how many distinct seeds a client cycles through on
	// its simulate jobs: request r uses seed r % SeedCycle, so each
	// client's first SeedCycle shot-bearing submissions miss the result
	// cache and the rest hit it. Default 4.
	SeedCycle int
	// OutPath, when set, receives the JSON LoadReport.
	OutPath string
	// RequireMetrics fails the run when the /metrics exposition is
	// missing a required family or disagrees with /v1/stats — the CI
	// gate.
	RequireMetrics bool
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Clients <= 0 {
		c.Clients = 20
	}
	if c.Requests <= 0 {
		c.Requests = 4
	}
	if c.Qubits <= 0 {
		c.Qubits = 12
	}
	if c.SeedCycle <= 0 {
		c.SeedCycle = 4
	}
	return c
}

// KindStats is one job kind's latency profile under load. Latencies
// are client-observed submit→done walls, including polling.
type KindStats struct {
	Kind     string  `json:"kind"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
	MaxMS    float64 `json:"max_ms"`
	MeanMS   float64 `json:"mean_ms"`
}

// LoadReport is the JSON artifact of one load run (BENCH_load.json).
type LoadReport struct {
	Clients     int     `json:"clients"`
	Requests    int     `json:"requests_per_client"`
	Qubits      int     `json:"qubits"`
	Shots       int     `json:"shots"`
	ExpectEvery int     `json:"expect_every"`
	Total       int     `json:"total_requests"`
	Errors      int     `json:"errors"`
	WallMS      float64 `json:"wall_ms"`
	RPS         float64 `json:"rps"`

	Kinds []KindStats `json:"kinds"`

	// Server-side view over the run (stats deltas and final state).
	HitRate       float64 `json:"hit_rate"`
	Executed      uint64  `json:"executed"`
	TracedResults int     `json:"traced_results"`

	// Resilience counters over the run, scraped from /metrics: how many
	// submissions the server shed with 429 (and the resulting shed
	// rate over all submission attempts), how many jobs failed on their
	// deadline, and how many execution panics were recovered. All zero
	// on a healthy un-stressed run — nonzero panics mean a bug.
	Shed429         uint64  `json:"shed_429"`
	ShedRate        float64 `json:"shed_rate"`
	Cancellations   uint64  `json:"cancellations"`
	PanicsRecovered uint64  `json:"panics_recovered"`

	// Telemetry cross-check: families seen in the final scrape, the
	// run's deltas of key counter series, and whether the scrape agreed
	// with /v1/stats.
	MetricFamilies []string           `json:"metric_families"`
	MetricDeltas   map[string]float64 `json:"metric_deltas"`
	Consistent     bool               `json:"consistent"`
}

// requiredFamilies is what every healthy scrape must expose; the load
// gate fails when one is missing after a run that exercised them.
var requiredFamilies = []string{
	"qgear_jobs_submitted_total",
	"qgear_jobs_completed_total",
	"qgear_cache_hits_total",
	"qgear_job_duration_seconds",
	"qgear_stage_duration_seconds",
	"qgear_queue_depth",
	"qgear_panics_recovered_total",
	"qgear_jobs_rejected_total",
	"qgear_jobs_cancelled_total",
	"go_goroutines",
}

// keyDeltaSeries are the counter series whose before/after deltas the
// report records (series key = name plus its sorted label block).
var keyDeltaSeries = []string{
	`qgear_jobs_submitted_total`,
	`qgear_jobs_completed_total`,
	`qgear_jobs_executed_total`,
	`qgear_cache_hits_total{cache="result"}`,
	`qgear_cache_hits_total{cache="plan"}`,
	`qgear_singleflight_hits_total`,
	`qgear_expectation_jobs_total`,
	`qgear_panics_recovered_total`,
	`qgear_jobs_rejected_total{reason="queue_full"}`,
	`qgear_jobs_rejected_total{reason="too_large"}`,
	`qgear_jobs_cancelled_total{stage="queue"}`,
	`qgear_jobs_cancelled_total{stage="running"}`,
}

// RunLoad drives the mixed workload and returns the report. Progress
// and the human-readable summary go to w.
func RunLoad(cfg LoadConfig, w io.Writer) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	base := cfg.Addr
	if base == "" {
		srv, err := service.New(cfg.Service)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
		ecfg := srv.Config()
		fmt.Fprintf(w, "load: embedded server (target=%s devices=%d pool=%d batch=%d)\n",
			ecfg.Target, ecfg.Devices, ecfg.WorkerPool, ecfg.MaxBatch)
	}
	client := &http.Client{Timeout: 60 * time.Second}

	before, famBefore, err := scrapeMetrics(client, base)
	if err != nil {
		return nil, fmt.Errorf("load: initial scrape: %w", err)
	}
	statsBefore, err := fetchLoadStats(client, base)
	if err != nil {
		return nil, err
	}

	ham := zzChain(cfg.Qubits)
	type sample struct {
		kind   string
		lat    time.Duration
		err    error
		traced bool
	}
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	fmt.Fprintf(w, "load: %d clients x %d requests, GHZ-%d, shots=%d, expectation every %d -> %s\n",
		cfg.Clients, cfg.Requests, cfg.Qubits, cfg.Shots, cfg.ExpectEvery, base)
	start := time.Now()
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := loadCircuit(cfg.Qubits, i)
			wire := service.FromCircuit(c)
			for r := 0; r < cfg.Requests; r++ {
				req := service.SubmitRequest{Circuit: wire}
				kind := "simulate"
				if cfg.ExpectEvery > 0 && r%cfg.ExpectEvery == cfg.ExpectEvery-1 {
					kind = "expectation"
					req.Kind = "expectation"
					req.Hamiltonian = service.FromHamiltonian(ham)
				} else {
					req.Shots = cfg.Shots
					req.Seed = uint64(r % cfg.SeedCycle)
				}
				t0 := time.Now()
				id, err := loadSubmitAndPoll(client, base, &req)
				sm := sample{kind: kind, lat: time.Since(t0), err: err}
				if err == nil && r == 0 {
					// One result fetch per client verifies traces flow
					// through the API without inflating every job's
					// measured latency.
					sm.traced = resultHasTrace(client, base, id)
				}
				mu.Lock()
				samples = append(samples, sm)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	statsAfter, err := fetchLoadStats(client, base)
	if err != nil {
		return nil, err
	}
	after, famAfter, err := scrapeMetrics(client, base)
	if err != nil {
		return nil, fmt.Errorf("load: final scrape: %w", err)
	}
	_ = famBefore

	rep := &LoadReport{
		Clients:     cfg.Clients,
		Requests:    cfg.Requests,
		Qubits:      cfg.Qubits,
		Shots:       cfg.Shots,
		ExpectEvery: cfg.ExpectEvery,
		Total:       len(samples),
		WallMS:      float64(wall.Microseconds()) / 1e3,
		RPS:         float64(len(samples)) / wall.Seconds(),
		HitRate:     statsAfter.HitRate,
		Executed:    statsAfter.Executed - statsBefore.Executed,
	}

	byKind := map[string][]time.Duration{}
	errsByKind := map[string]int{}
	for _, sm := range samples {
		if sm.err != nil {
			rep.Errors++
			errsByKind[sm.kind]++
			continue
		}
		byKind[sm.kind] = append(byKind[sm.kind], sm.lat)
		if sm.traced {
			rep.TracedResults++
		}
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		rep.Kinds = append(rep.Kinds, kindStats(k, byKind[k], errsByKind[k]))
	}

	rep.MetricFamilies = make([]string, 0, len(famAfter))
	for f := range famAfter {
		rep.MetricFamilies = append(rep.MetricFamilies, f)
	}
	sort.Strings(rep.MetricFamilies)
	rep.MetricDeltas = make(map[string]float64)
	for _, series := range keyDeltaSeries {
		if vAfter, ok := after[series]; ok {
			rep.MetricDeltas[series] = vAfter - before[series]
		}
	}

	// Resilience view, from the same scrape deltas.
	delta := func(series string) float64 { return after[series] - before[series] }
	shed := delta(`qgear_jobs_rejected_total{reason="queue_full"}`)
	rep.Shed429 = uint64(shed)
	if attempts := shed + float64(len(samples)); attempts > 0 {
		rep.ShedRate = shed / attempts
	}
	rep.Cancellations = uint64(delta(`qgear_jobs_cancelled_total{stage="queue"}`) +
		delta(`qgear_jobs_cancelled_total{stage="running"}`))
	rep.PanicsRecovered = uint64(delta(`qgear_panics_recovered_total`))

	// Consistency: the scrape and /v1/stats are one set of counters
	// viewed two ways, so after the run quiesces (every job polled to a
	// terminal state) the headline totals must agree exactly.
	rep.Consistent = after["qgear_jobs_submitted_total"] == float64(statsAfter.Submitted) &&
		after["qgear_jobs_completed_total"] == float64(statsAfter.Completed) &&
		after["qgear_jobs_failed_total"] == float64(statsAfter.Failed)

	printLoadReport(w, rep)

	// The byte-bounded result cache must honor its budget under load.
	if statsAfter.CacheMaxBytes > 0 && statsAfter.CacheBytes > statsAfter.CacheMaxBytes {
		return rep, fmt.Errorf("load: resident result cache %d bytes exceeds its %d-byte budget",
			statsAfter.CacheBytes, statsAfter.CacheMaxBytes)
	}
	if cfg.RequireMetrics {
		var missing []string
		for _, f := range requiredFamilies {
			if _, ok := famAfter[f]; !ok {
				missing = append(missing, f)
			}
		}
		if len(missing) > 0 {
			return rep, fmt.Errorf("load: /metrics missing required families: %s", strings.Join(missing, ", "))
		}
		if !rep.Consistent {
			return rep, fmt.Errorf("load: /metrics disagrees with /v1/stats (submitted %v vs %d, completed %v vs %d)",
				after["qgear_jobs_submitted_total"], statsAfter.Submitted,
				after["qgear_jobs_completed_total"], statsAfter.Completed)
		}
		if rep.Errors > 0 {
			return rep, fmt.Errorf("load: %d request errors", rep.Errors)
		}
	}
	if cfg.OutPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return rep, err
		}
		if err := os.WriteFile(cfg.OutPath, append(data, '\n'), 0o644); err != nil {
			return rep, err
		}
		fmt.Fprintf(w, "load: wrote %s\n", cfg.OutPath)
	}
	return rep, nil
}

func printLoadReport(w io.Writer, rep *LoadReport) {
	fmt.Fprintf(w, "load: %d requests in %.0f ms (%.0f req/s), errors %d, hit rate %.1f%%, executed %d, traced results %d\n",
		rep.Total, rep.WallMS, rep.RPS, rep.Errors, rep.HitRate*100, rep.Executed, rep.TracedResults)
	for _, k := range rep.Kinds {
		fmt.Fprintf(w, "load: %-11s n=%-4d p50 %.2fms p95 %.2fms p99 %.2fms max %.2fms mean %.2fms\n",
			k.Kind, k.Requests, k.P50MS, k.P95MS, k.P99MS, k.MaxMS, k.MeanMS)
	}
	fmt.Fprintf(w, "load: shed %d (rate %.1f%%), cancellations %d, panics recovered %d\n",
		rep.Shed429, rep.ShedRate*100, rep.Cancellations, rep.PanicsRecovered)
	fmt.Fprintf(w, "load: scraped %d metric families, consistent=%v\n", len(rep.MetricFamilies), rep.Consistent)
	keys := make([]string, 0, len(rep.MetricDeltas))
	for k := range rep.MetricDeltas {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "load:   Δ %s = %g\n", k, rep.MetricDeltas[k])
	}
}

func kindStats(kind string, lats []time.Duration, errs int) KindStats {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	pctl := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(p*float64(len(lats)-1))]
	}
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	ks := KindStats{
		Kind:     kind,
		Requests: len(lats),
		Errors:   errs,
		P50MS:    ms(pctl(0.50)),
		P95MS:    ms(pctl(0.95)),
		P99MS:    ms(pctl(0.99)),
		MaxMS:    ms(pctl(1.0)),
	}
	if len(lats) > 0 {
		ks.MeanMS = ms(sum / time.Duration(len(lats)))
	}
	return ks
}

// loadCircuit is client i's workload: GHZ-n with a client-specific
// phase twist, so distinct clients never share a content address but
// one client's repeats do.
func loadCircuit(n, i int) *circuit.Circuit {
	c := circuit.GHZ(n, false)
	c.Name = fmt.Sprintf("load-ghz%d-%d", n, i)
	c.RZ(1e-6*float64(i+1), 0)
	return c
}

// zzChain is the mixed workload's observable: nearest-neighbor ZZ
// couplings over the register.
func zzChain(n int) *observable.Hamiltonian {
	h := &observable.Hamiltonian{NumQubits: n}
	for q := 0; q+1 < n; q++ {
		h.Add(observable.NewTerm(1.0, map[int]observable.Pauli{
			q: observable.Z, q + 1: observable.Z,
		}))
	}
	return h
}

// RetryAfterDelay converts a 429's Retry-After hint into a sleep:
// the hinted whole seconds when present and sane (capped at 5s — a
// load client should not be parked indefinitely by one response),
// otherwise the caller's fallback backoff. Exported for the serve
// clients, which share the shed-handling behavior.
func RetryAfterDelay(h http.Header, fallback time.Duration) time.Duration {
	secs, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || secs < 0 {
		return fallback
	}
	d := time.Duration(secs) * time.Second
	if max := 5 * time.Second; d > max {
		d = max
	}
	return d
}

// loadSubmitAndPoll pushes one job through the API and follows it to a
// terminal state with the ?wait_ms long-poll (one blocking GET per
// round instead of a tight 2 ms sleep-and-GET spin), honoring the
// server's Retry-After hint on queue-full responses. Returns the job
// id.
func loadSubmitAndPoll(client *http.Client, base string, req *service.SubmitRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	var info service.JobInfo
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		status := resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if status == http.StatusTooManyRequests && attempt < 200 {
			time.Sleep(RetryAfterDelay(resp.Header, time.Duration(attempt+1)*time.Millisecond))
			continue
		}
		if status != http.StatusAccepted {
			return "", fmt.Errorf("submit: HTTP %d", status)
		}
		if err != nil {
			return "", err
		}
		break
	}
	deadline := time.Now().Add(5 * time.Minute)
	for {
		switch info.State {
		case service.StateDone:
			return info.ID, nil
		case service.StateFailed:
			return info.ID, fmt.Errorf("job %s failed: %s", info.ID, info.Error)
		}
		if time.Now().After(deadline) {
			return info.ID, fmt.Errorf("job %s: poll deadline exceeded in state %q", info.ID, info.State)
		}
		resp, err := client.Get(base + "/v1/jobs/" + info.ID + "?wait_ms=1000")
		if err != nil {
			return info.ID, err
		}
		status := resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if status != http.StatusOK {
			return info.ID, fmt.Errorf("poll %s: HTTP %d", info.ID, status)
		}
		if err != nil {
			return info.ID, err
		}
	}
}

// resultHasTrace fetches one finished result and reports whether it
// carries a non-empty stage trace.
func resultHasTrace(client *http.Client, base, id string) bool {
	resp, err := client.Get(base + "/v1/results/" + id)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var rr service.ResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return false
	}
	return rr.Trace != nil && len(rr.Trace.Spans) > 0
}

func fetchLoadStats(client *http.Client, base string) (service.Stats, error) {
	var st service.Stats
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return st, fmt.Errorf("stats: HTTP %d: %s", resp.StatusCode, b)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// scrapeMetrics fetches and parses one Prometheus text exposition:
// series keyed by "name{labels}" (or bare name), plus the set of
// family names declared by # TYPE lines.
func scrapeMetrics(client *http.Client, base string) (map[string]float64, map[string]string, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	return ParseMetrics(resp.Body)
}

// ParseMetrics parses Prometheus text format into series values and
// family types. Exported for the CI gate and tests.
func ParseMetrics(r io.Reader) (series map[string]float64, families map[string]string, err error) {
	series = make(map[string]float64)
	families = make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			// "# TYPE name kind"
			if len(fields) == 4 && fields[1] == "TYPE" {
				families[fields[2]] = fields[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, nil, fmt.Errorf("metrics: unparseable line %q", line)
		}
		key := line[:sp]
		v, perr := strconv.ParseFloat(line[sp+1:], 64)
		if perr != nil {
			return nil, nil, fmt.Errorf("metrics: bad value in %q: %v", line, perr)
		}
		series[key] = v
	}
	return series, families, sc.Err()
}
