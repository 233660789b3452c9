package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"qgear"
	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/qmath"
	"qgear/internal/randcirc"
	"qgear/internal/sampling"
	"qgear/internal/service"
	"qgear/internal/store"
)

// The serve workload: open-loop, seeded arrivals at fixed rates into an
// embedded service.Server over HTTP, with qgear-serve's defaults except
// the core limit (pool × workers ≤ nproc), a live store directory and a
// result-cache byte budget below the distinct working set.

type serveSize struct {
	// simQubits are the simulate jobs' widths, cycled. Latency grows
	// with width, and the middle width comes twice so that the p50 of
	// the mix falls inside that width's mode rather than in the gap
	// between two modes, where it would jump from run to run.
	simQubits            []int
	simBlocks, shots     int
	ansQubits, ansLayers int
	sweepPoints          int
	gradQubits           int
	storeArtifacts       int
	cacheBytes           int64
	rateLow, rateHigh    float64
	ladder               []float64
	rung                 time.Duration
	tailLimit            time.Duration
	librarySample        int
}

// Shares of --seconds the phases take: the two fixed rates, then the
// ladder (whole rungs only, stopping at the first that misses the tail
// limit).
const fixedShare, ladderShare = 0.8, 0.2

// roundSeconds is the target length of one round of the fixed-rate
// phase (whole rounds fill its share): the low rate for the first half,
// the high rate for the second, back to back. On a shared host the
// engine's speed drifts over a few seconds (the median execute time of
// the simulate jobs differed by up to half between rounds of one run),
// so a rate offered in one block would catch whichever drift fell
// there; alternating in short rounds spreads each rate's requests over
// the whole window, where the median looks past a slow stretch.
const roundSeconds = 2.5

func serveSizeFor(smoke bool) serveSize {
	if smoke {
		return serveSize{
			simQubits: []int{6, 7, 8}, simBlocks: 10, shots: 100,
			ansQubits: 6, ansLayers: 1, sweepPoints: 3, gradQubits: 4,
			storeArtifacts: 40, cacheBytes: 4 << 10,
			rateLow: 20, rateHigh: 40, ladder: []float64{40, 60},
			rung: 250 * time.Millisecond, tailLimit: 500 * time.Millisecond, librarySample: 4,
		}
	}
	return serveSize{
		simQubits: []int{14, 15, 15, 16}, simBlocks: 30, shots: 1000,
		ansQubits: 16, ansLayers: 2, sweepPoints: 4, gradQubits: 8,
		storeArtifacts: 2000, cacheBytes: 2 << 20,
		rateLow: 12, rateHigh: 24, ladder: ladder(48, 200),
		rung: 750 * time.Millisecond, tailLimit: 250 * time.Millisecond, librarySample: 8,
	}
}

// ladder is a geometric rate ladder from lo to hi with 10% steps, so a
// maximum read off it repeats within a tenth.
func ladder(lo, hi float64) []float64 {
	var out []float64
	for r := lo; r <= hi*1.0001; r *= 1.1 {
		out = append(out, math.Round(r*100)/100)
	}
	return out
}

// mixBlock is the composition of every 20 arrivals, shuffled per block:
// fresh requests of each kind and exact repeats of earlier requests
// (result-cache, single-flight and store hits). A fixed composition
// keeps the latency distribution comparable across seeds. One in three
// fresh requests is an observable job, as in `qgear-bench load`'s
// default -expect-every 3; README.md gives the reason for each count.
var mixBlock = map[string]int{"simulate": 10, "expectation": 3, "sweep": 1, "gradient": 1, "repeat": 5}

// repeatCycle is the kind each repeat slot repeats, in turn: per 10
// repeats 6 simulate, 2 expectation, 1 sweep and 1 gradient, close to
// the fresh requests' 10:3:1:1. Repeated simulate jobs cycle through
// the widths as fresh ones do. A repeat's latency depends on what it
// repeats (a 16-qubit result loaded from the store takes several times
// as long as a repeated expectation), so fixing the kinds keeps the
// latency mix the same in every run; which earlier request of the kind
// is repeated is drawn from the seed.
var repeatCycle = []string{"simulate", "expectation", "simulate", "sweep", "simulate",
	"simulate", "expectation", "simulate", "gradient", "simulate"}

// request is one distinct job of the mix.
type request struct {
	idx    int
	kind   string
	body   []byte
	c      *circuit.Circuit // as the server decodes it
	h      *observable.Hamiltonian
	points [][]float64
	shots  int
	seed   uint64
}

// mix draws the seeded requests and keeps those issued so far, by
// class, for repeats.
type mix struct {
	sz       serveSize
	rng      *qmath.RNG
	issued   map[string][]*request
	ans      *circuit.Circuit
	gradAns  *circuit.Circuit
	hAns     *observable.Hamiltonian
	hGrad    *observable.Hamiltonian
	distinct int
}

func newMix(sz serveSize, seed uint64) *mix {
	return &mix{
		sz: sz, rng: qmath.NewRNG(seed), issued: map[string][]*request{},
		ans: ansatz(sz.ansQubits, sz.ansLayers), gradAns: ansatz(sz.gradQubits, 1),
		hAns:  observable.TransverseFieldIsing(sz.ansQubits, tfimJ, tfimG),
		hGrad: observable.TransverseFieldIsing(sz.gradQubits, tfimJ, tfimG),
	}
}

// class is what a repeat is matched on: the kind, and for a simulate
// job its width.
func class(kind string, qubits int) string {
	if kind == "simulate" {
		return kind + "/" + strconv.Itoa(qubits)
	}
	return kind
}

// stream is one offered rate's sequence of requests: whole shuffled
// blocks of mixBlock, so that each rate gets the same composition in
// every run however the rates alternate. Streams share one mix, so a
// repeat may repeat a request another rate issued.
type stream struct {
	m     *mix
	rng   *qmath.RNG
	block []string // the current block's remaining slots
	// sims and repeats count this stream's fresh simulate requests and
	// repeats, repeatSims its repeated simulate requests, to cycle
	// widths and repeatCycle.
	sims, repeats, repeatSims int
}

func (m *mix) stream(seed uint64) *stream { return &stream{m: m, rng: qmath.NewRNG(seed)} }

// next returns the stream's next request: the next slot of a shuffled
// mixBlock. A repeat slot draws uniformly from the issued requests of
// its class, or issues a fresh one of the class while there is none.
func (s *stream) next() (*request, error) {
	if len(s.block) == 0 {
		for _, kind := range []string{"simulate", "expectation", "sweep", "gradient", "repeat"} {
			for i := 0; i < mixBlock[kind]; i++ {
				s.block = append(s.block, kind)
			}
		}
		for i := len(s.block) - 1; i > 0; i-- {
			j := s.rng.Intn(i + 1)
			s.block[i], s.block[j] = s.block[j], s.block[i]
		}
	}
	kind := s.block[0]
	s.block = s.block[1:]
	widths := s.m.sz.simQubits
	var qubits int
	if kind == "repeat" {
		kind = repeatCycle[s.repeats%len(repeatCycle)]
		s.repeats++
		if kind == "simulate" {
			qubits = widths[s.repeatSims%len(widths)]
			s.repeatSims++
		}
		if prior := s.m.issued[class(kind, qubits)]; len(prior) > 0 {
			return prior[s.rng.Intn(len(prior))], nil
		}
	} else if kind == "simulate" {
		qubits = widths[s.sims%len(widths)]
		s.sims++
	}
	r, err := s.m.fresh(kind, qubits)
	if err != nil {
		return nil, err
	}
	key := class(kind, qubits)
	s.m.issued[key] = append(s.m.issued[key], r)
	return r, nil
}

// fresh draws a new request of the kind; qubits is a simulate job's
// width.
func (m *mix) fresh(kind string, qubits int) (*request, error) {
	r := &request{idx: m.distinct, kind: kind}
	m.distinct++
	sreq := service.SubmitRequest{}
	var c *circuit.Circuit
	var err error
	switch kind {
	case "simulate":
		if c, err = randcirc.Generate(randcirc.Spec{Qubits: qubits, Blocks: m.sz.simBlocks, Seed: m.rng.Uint64(), Measure: true}); err != nil {
			return nil, err
		}
		r.shots, r.seed = m.sz.shots, m.rng.Uint64()
	case "expectation":
		if c, err = m.ans.BindParams(randomPoint(m.rng, m.ans.NumParams())); err != nil {
			return nil, err
		}
		r.h = m.hAns
	case "sweep":
		c, r.h = m.ans, m.hAns
		for i := 0; i < m.sz.sweepPoints; i++ {
			r.points = append(r.points, randomPoint(m.rng, m.ans.NumParams()))
		}
	default: // gradient
		if c, err = m.gradAns.BindParams(randomPoint(m.rng, m.gradAns.NumParams())); err != nil {
			return nil, err
		}
		r.h = m.hGrad
	}
	sreq.Kind, sreq.Circuit, sreq.Shots, sreq.Seed, sreq.Points = r.kind, service.FromCircuit(c), r.shots, r.seed, r.points
	if r.h != nil {
		sreq.Hamiltonian = service.FromHamiltonian(r.h)
	}
	if r.body, err = json.Marshal(sreq); err != nil {
		return nil, err
	}
	// Check against the circuit exactly as the server decodes it.
	if r.c, err = sreq.Circuit.ToCircuit(); err != nil {
		return nil, err
	}
	return r, nil
}

// outcome is one arrival's life from due time to result in hand.
type outcome struct {
	req       *request
	job       int
	due       time.Time
	sent      time.Time
	done      time.Time
	submitDur time.Duration
	fetchDur  time.Duration
	// detectDelay is how long the job was finished on the server before
	// the fetcher saw it: load-generator time inside latency.
	detectDelay time.Duration
	id          string
	err         error
	res         *service.ResultResponse
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// client talks to the server over at most two connections: one for the
// dispatcher's submissions, one for the fetcher's polls.
type client struct {
	base string
	http *http.Client
	rec  *recorder
}

func newClient(base string, conns int, rec *recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr}, rec: rec}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do issues one request and decodes the JSON reply into out; any status
// but ok is an error.
func (c *client) do(method, path string, body []byte, out any, ok int) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != ok {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

func (c *client) submit(o *outcome) error {
	var info service.JobInfo
	t0 := time.Now()
	err := c.rec.do("service.POST /v1/jobs", 0, o.job, func(int) error {
		return c.do(http.MethodPost, "/v1/jobs", o.req.body, &info, http.StatusAccepted)
	})
	o.submitDur = time.Since(t0)
	o.id = info.ID
	return err
}

// poll returns whether the job reached a terminal state, long-polling
// up to waitMs. When it has, it records how long ago the server
// finished it.
func (c *client) poll(o *outcome, waitMs int) (bool, error) {
	var info service.JobInfo
	path := "/v1/jobs/" + o.id
	if waitMs > 0 {
		path += "?wait_ms=" + strconv.Itoa(waitMs)
	}
	if err := c.do(http.MethodGet, path, nil, &info, http.StatusOK); err != nil {
		return false, err
	}
	done := info.State == service.StateDone || info.State == service.StateFailed
	if done && info.FinishedAt != nil {
		o.detectDelay = max(0, time.Since(*info.FinishedAt))
	}
	return done, nil
}

func (c *client) fetch(o *outcome) error {
	var res service.ResultResponse
	t0 := time.Now()
	err := c.rec.do("service.GET /v1/results", 0, o.job, func(int) error {
		return c.do(http.MethodGet, "/v1/results/"+o.id, nil, &res, http.StatusOK)
	})
	o.fetchDur = time.Since(t0)
	o.done = time.Now()
	if err != nil {
		return err
	}
	if res.State != service.StateDone {
		return fmt.Errorf("job %s ended %s", o.id, res.State)
	}
	o.res = &res
	return nil
}

// loadgen runs open-loop phases: the calling goroutine dispatches on
// schedule and one fetcher goroutine collects results.
type loadgen struct {
	cl      *client
	arrival *qmath.RNG
	jobs    int
}

// fetchWaitMs is how long the fetcher long-polls the oldest outstanding
// job in a round where no job had finished.
const fetchWaitMs = 2

// segment is a stretch of the open-loop schedule at one offered rate,
// drawing its requests from src.
type segment struct {
	rate float64
	dur  time.Duration
	src  *stream
}

// phase offers the segments' arrivals back to back and returns each
// segment's outcomes once all have finished. A segment has rate·dur
// arrivals, stratified: the i-th of n falls at a uniformly drawn time
// within the i-th n-th of the segment. The offered rate then holds over
// every stretch longer than two gaps, and no chance cluster of arrivals
// queues jobs behind each other: a Poisson process's clusters made the
// median latency of a run depend on where its clusters fell.
func (lg *loadgen) phase(segs []segment) ([][]*outcome, error) {
	start := time.Now().Add(5 * time.Millisecond)
	var plan []*outcome
	bySeg := make([][]*outcome, len(segs))
	for k, sg := range segs {
		n := int(math.Round(sg.rate * sg.dur.Seconds()))
		at := make([]time.Duration, n)
		for i := range at {
			at[i] = time.Duration((float64(i) + lg.arrival.Float64()) / float64(n) * float64(sg.dur))
		}
		for i := range at {
			r, err := sg.src.next()
			if err != nil {
				return nil, err
			}
			lg.jobs++
			o := &outcome{req: r, job: lg.jobs, due: start.Add(at[i])}
			plan, bySeg[k] = append(plan, o), append(bySeg[k], o)
		}
		start = start.Add(sg.dur)
	}
	pending := make(chan *outcome, len(plan)) // sized to the number of sends
	fetched := make(chan struct{})
	go func() {
		defer close(fetched)
		lg.fetcher(pending)
	}()
	for _, o := range plan {
		if d := time.Until(o.due); d > 0 {
			time.Sleep(d)
		}
		o.sent = time.Now()
		if o.err = lg.cl.submit(o); o.err != nil {
			o.done = time.Now()
			continue
		}
		pending <- o
	}
	close(pending)
	<-fetched
	return bySeg, nil
}

// fetcher collects results. Each round it checks every outstanding job
// without waiting and fetches the finished ones; only in a round where
// none had finished does it long-poll the oldest, briefly. Jobs finish
// out of order (two workers, cache hits), so a finished job is seen
// within one round whatever the jobs ahead of it do.
func (lg *loadgen) fetcher(pending <-chan *outcome) {
	var out []*outcome
	open := true
	for open || len(out) > 0 {
		if len(out) == 0 {
			o, ok := <-pending
			if !ok {
				return
			}
			out = append(out, o)
		}
		for drained := false; open && !drained; {
			select {
			case o, ok := <-pending:
				if !ok {
					open = false
				} else {
					out = append(out, o)
				}
			default:
				drained = true
			}
		}
		keep := out[:0]
		for _, o := range out {
			if !lg.collect(o, 0) {
				keep = append(keep, o)
			}
		}
		if len(keep) == len(out) && lg.collect(keep[0], fetchWaitMs) {
			keep = keep[1:]
		}
		out = keep
	}
}

// collect polls one job and fetches its result once it is terminal; it
// reports whether the job is finished with (fetched or failed).
func (lg *loadgen) collect(o *outcome, waitMs int) bool {
	done, err := lg.cl.poll(o, waitMs)
	if err == nil && done {
		err = lg.cl.fetch(o)
	}
	if err != nil {
		o.err, o.done = err, time.Now()
		return true
	}
	return done
}

// phaseStats summarises one phase.
type phaseStats struct {
	rate     float64
	n        int
	failed   int
	lat, lag sample // ms
}

func summarize(rate float64, outs []*outcome) phaseStats {
	ps := phaseStats{rate: rate, n: len(outs)}
	for _, o := range outs {
		ps.lag = append(ps.lag, ms(o.sent.Sub(o.due)))
		if o.err != nil {
			ps.failed++
			continue
		}
		ps.lat = append(ps.lat, ms(o.latency()))
	}
	return ps
}

// passes reports whether a ladder rung met the tail limit with nothing
// failed or refused.
func (ps phaseStats) passes(limit time.Duration) bool {
	if ps.failed > 0 || len(ps.lat) == 0 {
		return false
	}
	tail, _ := ps.lat.tail()
	return tail <= ms(limit)
}

// server is one embedded server with its HTTP listener.
type server struct {
	srv  *service.Server
	http *http.Server
	base string
	done chan error
}

func (b *bench) serveConfig(dir string, sz serveSize) service.Config {
	pool := min(2, b.nproc) // qgear-serve's default pool, within nproc
	return service.Config{
		WorkerPool:    pool,
		Workers:       max(1, b.nproc/pool),
		StoreDir:      dir,
		MaxCacheBytes: sz.cacheBytes,
	}
}

func startServer(cfg service.Config) (*server, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, http: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// seedStore fills dir with n small result artifacts, so a server boot
// replays a manifest of that size.
func seedStore(dir string, n int, seed uint64) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	rng := qmath.NewRNG(seed)
	for i := 0; i < n; i++ {
		p := rng.Float64()
		res := &backend.Result{Target: backend.TargetNvidia, NumQubits: 1, Probabilities: []float64{p, 1 - p}}
		if err := st.SaveResult(fmt.Sprintf("bench-seed-%d-%d", seed, i), "bench", res); err != nil {
			return err
		}
	}
	return nil
}

// warmRequest is the setup's warm-up job: a small GHZ simulation. Each
// boot uses its own sampling seed, so no boot finds the warm-up result
// that an earlier boot's shutdown spilled to the store: every boot
// executes it.
func warmRequest(boot int) ([]byte, error) {
	return json.Marshal(service.SubmitRequest{Kind: "simulate", Circuit: service.FromCircuit(circuit.GHZ(10, true)),
		Shots: 100, Seed: uint64(boot) + 1})
}

// bootOnce starts a server over the store and completes one warm-up
// request; it returns the server and the time taken.
func (b *bench) bootOnce(cfg service.Config, boot int) (*server, time.Duration, error) {
	body, err := warmRequest(boot)
	if err != nil {
		return nil, 0, err
	}
	var s *server
	d, err := timed(func() error {
		var err error
		if s, err = startServer(cfg); err != nil {
			return err
		}
		cl := newClient(s.base, 1, nil)
		defer cl.close()
		o := &outcome{req: &request{body: body}}
		if err := cl.submit(o); err != nil {
			return err
		}
		for {
			done, err := cl.poll(o, 1000)
			if err != nil {
				return err
			}
			if done {
				return cl.fetch(o)
			}
		}
	})
	if err != nil && s != nil {
		s.stop()
	}
	return s, d, err
}

// storeDir is the serve workload's store directory.
func (b *bench) storeDir() string {
	return filepath.Join(b.cfg.outDir, fmt.Sprintf("store-seed%d", b.cfg.seed))
}

// serveSetupProbe is one set-up probe of the serve workload: a server
// boot over the seeded store, with the given boot's warm-up request.
// Shutting the server down is not part of set-up.
func (b *bench) serveSetupProbe(boot int) (time.Duration, error) {
	s, d, err := b.bootOnce(b.serveConfig(b.storeDir(), serveSizeFor(b.cfg.smoke)), boot)
	if err != nil {
		return 0, err
	}
	return d, s.stop()
}

func runServe(b *bench) error {
	sz := serveSizeFor(b.cfg.smoke)
	dir := b.storeDir()
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := seedStore(dir, sz.storeArtifacts, b.cfg.seed); err != nil {
		return fmt.Errorf("seeding store: %w", err)
	}
	openD, err := timed(func() error { _, err := store.Open(dir); return err })
	if err != nil {
		return err
	}
	cfg := b.serveConfig(dir, sz)
	if err := b.setupProbes(); err != nil {
		return err
	}
	// The server the phases use boots after the probes, with a warm-up
	// seed of its own.
	s, _, err := b.bootOnce(cfg, setupRuns)
	b.attempt(err)
	if err != nil {
		return err
	}
	defer func() {
		if s != nil {
			s.stop()
		}
	}()

	cl := newClient(s.base, 2, b.rec)
	defer cl.close()
	statsBefore, metricsBefore, err := scrape(cl)
	if err != nil {
		return err
	}
	root := qmath.NewRNG(b.cfg.seed)
	m := newMix(sz, root.Uint64())
	lg := &loadgen{cl: cl, arrival: qmath.NewRNG(root.Uint64())}
	lowSrc, highSrc, ladderSrc := m.stream(root.Uint64()), m.stream(root.Uint64()), m.stream(root.Uint64())

	var all []*outcome
	record := func(outs []*outcome) {
		for _, o := range outs {
			b.attempt(o.err)
		}
		all = append(all, outs...)
	}
	fixed := fixedShare * b.cfg.seconds
	rounds := max(1, int(fixed/roundSeconds))
	half := time.Duration(fixed / float64(rounds) / 2 * float64(time.Second))
	var segs []segment
	for i := 0; i < rounds; i++ {
		segs = append(segs, segment{sz.rateLow, half, lowSrc}, segment{sz.rateHigh, half, highSrc})
	}
	bySeg, err := lg.phase(segs)
	if err != nil {
		return err
	}
	var lowOuts, highOuts []*outcome
	for k, outs := range bySeg {
		record(outs)
		if k%2 == 0 {
			lowOuts = append(lowOuts, outs...)
		} else {
			highOuts = append(highOuts, outs...)
		}
	}
	low, high := summarize(sz.rateLow, lowOuts), summarize(sz.rateHigh, highOuts)
	// The ladder stops at a load-dependent rung, so how many jobs it adds
	// varies; the memory peak is read over the fixed-rate phases.
	b.peakRSS = peakRSSMiB()
	var ladderStats []phaseStats
	if b.rec == nil {
		budget := ladderShare * b.cfg.seconds
		for _, rate := range sz.ladder {
			if budget < sz.rung.Seconds() {
				break
			}
			budget -= sz.rung.Seconds()
			bySeg, err := lg.phase([]segment{{rate, sz.rung, ladderSrc}})
			if err != nil {
				return err
			}
			record(bySeg[0])
			ps := summarize(rate, bySeg[0])
			ladderStats = append(ladderStats, ps)
			if !ps.passes(sz.tailLimit) {
				break
			}
		}
	}
	statsAfter, metricsAfter, err := scrape(cl)
	if err != nil {
		return err
	}

	b.serveChecks(all)
	var t *tracer
	if b.rec != nil {
		t = &tracer{rec: b.rec}
	}
	if err := b.libraryChecks(sz, all, cfg, t); err != nil {
		return err
	}

	if len(low.lat) == 0 || len(high.lat) == 0 {
		return fmt.Errorf("serve: no request completed")
	}
	b.slot(slotMain, low.lat.p50Metric("latency_p50_ms.low", "ms"))
	b.e2eAdd(low.lat.tailMetric("latency_tail_ms.low", "ms"))
	b.slot(slotSecond, high.lat.p50Metric("latency_p50_ms.high", "ms"))
	b.e2eAdd(high.lat.tailMetric("latency_tail_ms.high", "ms"))
	b.printf("offered rates: low %.2f/s, high %.2f/s; tail limit %v", sz.rateLow, sz.rateHigh, sz.tailLimit)
	if b.rec == nil {
		maxRate, stat := 0.0, "ladder"
		for _, ps := range ladderStats {
			tail, label := ps.lat.tail()
			b.printf("ladder rung %.2f/s: n=%d failed=%d %s=%.2f ms", ps.rate, ps.n, ps.failed, label, tail)
			if ps.passes(sz.tailLimit) {
				maxRate, stat = ps.rate, "ladder, lower bound: budget spent"
			} else {
				stat = "ladder"
			}
		}
		b.e2eAdd(valueMetric("max_rate_rps", maxRate, "1/s", stat, len(ladderStats)))
	}
	b.serveLayers(all, statsBefore, statsAfter, metricsBefore, metricsAfter, secs(openD))
	if t != nil {
		b.layerMetrics(t)
	}
	err = s.stop()
	s = nil
	return err
}

// digest is the comparable content of a result.
func digest(r *service.ResultResponse) string {
	return mustJSON(struct {
		Counts   map[string]int `json:"c"`
		Exp      *float64       `json:"e"`
		Sweep    []float64      `json:"s"`
		Gradient []float64      `json:"g"`
	}{r.Counts, r.ExpValue, r.SweepValues, r.Gradient})
}

// serveChecks verifies that every repeat of a request returned the same
// result as its first occurrence.
func (b *bench) serveChecks(all []*outcome) {
	first := map[int]string{}
	for _, o := range all {
		if o.res == nil {
			continue
		}
		d := digest(o.res)
		ref, seen := first[o.req.idx]
		if !seen {
			first[o.req.idx] = d
			continue
		}
		if b.corrupted("serve.repeat_identical") {
			ref += "x"
		}
		b.verify("serve.repeat_identical", errf(d == ref, "request %d (%s): repeat result differs", o.req.idx, o.req.kind))
	}
}

// libraryChecks runs a seeded sample of distinct requests through the
// library with the server's execution options and compares results. On
// traced runs each is also replayed layer by layer.
func (b *bench) libraryChecks(sz serveSize, all []*outcome, cfg service.Config, t *tracer) error {
	firstOK := map[int]*outcome{}
	var order []int
	for _, o := range all {
		if o.res != nil && firstOK[o.req.idx] == nil {
			firstOK[o.req.idx] = o
			order = append(order, o.req.idx)
		}
	}
	rng := qmath.NewRNG(b.cfg.seed ^ 0x11b2a2)
	picked := map[int]bool{}
	// Always include the first request of each kind, so every layer the
	// mix reaches is replayed; the speedup probe runs on the simulate's
	// plan.
	kinds := map[string]bool{}
	for _, idx := range order {
		if k := firstOK[idx].req.kind; !kinds[k] {
			kinds[k], picked[idx] = true, true
		}
	}
	for len(picked) < min(sz.librarySample, len(order)) {
		picked[order[rng.Intn(len(order))]] = true
	}
	opts := qgear.RunOptions{Target: backend.TargetNvidia, Workers: cfg.Workers}
	var libWall, replayWall time.Duration
	var probe *compiled
	for _, idx := range order {
		if !picked[idx] {
			continue
		}
		o := firstOK[idx]
		lib, d, err := libraryRun(o.req, opts)
		b.attempt(err)
		if err != nil {
			return err
		}
		libWall += d
		want := digest(lib)
		if b.corrupted("serve.library_match") {
			want += "x"
		}
		b.verify("serve.library_match", errf(digest(o.res) == want, "request %d (%s): server result differs from library", idx, o.req.kind))
		if t == nil {
			continue
		}
		var rep *service.ResultResponse
		var comp *compiled
		d, err = timed(func() error {
			return b.rec.do("bench.job", 0, 100000+idx, func(id int) error {
				var err error
				rep, comp, err = replay(t, 100000+idx, id, o.req, cfg.Workers)
				return err
			})
		})
		b.attempt(err)
		if err != nil {
			return err
		}
		replayWall += d
		ref := digest(lib)
		if b.corrupted("trace.identical") {
			ref += "x"
		}
		b.verify("trace.identical", errf(digest(rep) == ref, "request %d (%s): replay differs from library", idx, o.req.kind))
		if probe == nil && o.req.kind == "simulate" {
			probe = comp
		}
	}
	if t != nil {
		if probe == nil {
			return fmt.Errorf("serve: no simulate request to probe")
		}
		if err := t.speedupProbe(200000, probe, b.nproc); err != nil {
			return err
		}
		b.layerAdd(overheadMetric(replayWall, libWall))
	}
	return nil
}

// libraryRun executes a request through the public API.
func libraryRun(r *request, opts qgear.RunOptions) (*service.ResultResponse, time.Duration, error) {
	out := &service.ResultResponse{}
	d, err := timed(func() error {
		switch r.kind {
		case "simulate":
			o := opts
			o.Shots, o.Seed = r.shots, r.seed
			res, err := qgear.Run(r.c, o)
			if err != nil {
				return err
			}
			out.Counts = countsWire(res.Counts, r.c.NumQubits)
		case "expectation":
			res, err := qgear.RunExpectation(r.c, r.h, opts)
			if err != nil {
				return err
			}
			out.ExpValue = res.ExpValue
		case "sweep":
			res, err := qgear.RunSweep(r.c, r.h, r.points, opts)
			if err != nil {
				return err
			}
			out.SweepValues = res.SweepValues
		case "gradient":
			res, err := qgear.RunGradient(r.c, r.h, r.c.ParamValues(), opts)
			if err != nil {
				return err
			}
			out.ExpValue, out.Gradient = res.ExpValue, res.Gradient
		}
		return nil
	})
	return out, d, err
}

// replay executes a request layer by layer.
func replay(t *tracer, job, parent int, r *request, workers int) (*service.ResultResponse, *compiled, error) {
	out := &service.ResultResponse{}
	switch r.kind {
	case "simulate", "expectation":
		comp, err := t.compile(job, parent, r.c, kernel.Options{}, 0)
		if err != nil {
			return nil, nil, err
		}
		if r.kind == "simulate" {
			_, counts, err := t.simulate(job, parent, comp, workers, r.shots, r.seed)
			out.Counts = countsWire(counts, r.c.NumQubits)
			return out, comp, err
		}
		v, err := t.expectation(job, parent, comp, r.h, workers)
		out.ExpValue = &v
		return out, comp, err
	case "sweep":
		vals, err := t.sweep(job, parent, r.c, r.h, r.points, workers)
		out.SweepValues = vals
		return out, nil, err
	default: // gradient
		base := r.c.ParamValues()
		vals, err := t.sweep(job, parent, r.c, r.h, gradientPoints(base), workers)
		if err != nil {
			return nil, nil, err
		}
		v := vals[0]
		out.ExpValue = &v
		out.Gradient = make([]float64, len(base))
		for j := range base {
			out.Gradient[j] = (vals[1+2*j] - vals[2+2*j]) / 2
		}
		return out, nil, nil
	}
}

func countsWire(c sampling.Counts, n int) map[string]int {
	out := make(map[string]int, len(c))
	for idx, v := range c {
		out[sampling.Bitstring(idx, n)] = v
	}
	return out
}

// scrape reads /v1/stats and the /metrics text.
func scrape(cl *client) (service.Stats, string, error) {
	var st service.Stats
	if err := cl.do(http.MethodGet, "/v1/stats", nil, &st, http.StatusOK); err != nil {
		return st, "", err
	}
	req, err := http.NewRequest(http.MethodGet, cl.base+"/metrics", nil)
	if err != nil {
		return st, "", err
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return st, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return st, string(data), err
}

// histogram parses the cumulative buckets of one Prometheus histogram.
func histogram(text, name string) (bounds []float64, cum []float64) {
	sc := bufio.NewScanner(strings.NewReader(text))
	prefix := name + `_bucket{le="`
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		le, rest, ok := strings.Cut(strings.TrimPrefix(line, prefix), `"}`)
		if !ok {
			continue
		}
		bound, err1 := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			bound, err1 = math.Inf(1), nil
		}
		n, err2 := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err1 == nil && err2 == nil {
			bounds, cum = append(bounds, bound), append(cum, n)
		}
	}
	return bounds, cum
}

// histMedianDelta is the median of the observations a histogram gained
// between two scrapes, interpolated within its bucket; NaN when none.
func histMedianDelta(before, after, name string) (float64, int) {
	bb, cb := histogram(before, name)
	ba, ca := histogram(after, name)
	if len(ba) == 0 {
		return math.NaN(), 0
	}
	delta := make([]float64, len(ca))
	for i := range ca {
		delta[i] = ca[i]
		if i < len(cb) && len(bb) == len(ba) {
			delta[i] -= cb[i]
		}
	}
	total := delta[len(delta)-1]
	if total <= 0 {
		return math.NaN(), 0
	}
	half := total / 2
	lo, prev := 0.0, 0.0
	for i, c := range delta {
		if c >= half {
			hi := ba[i]
			if math.IsInf(hi, 1) {
				return lo, int(total)
			}
			return lo + (hi-lo)*(half-prev)/math.Max(c-prev, 1), int(total)
		}
		lo, prev = ba[i], c
	}
	return lo, int(total)
}

// serveLayers derives the service and store per-layer metrics from the
// client's timings, the result traces and the server's counters.
func (b *bench) serveLayers(all []*outcome, before, after service.Stats, mBefore, mAfter string, openS float64) {
	var submit, fetch, queue, exec, lag, detect sample
	for _, o := range all {
		lag = append(lag, ms(o.sent.Sub(o.due)))
		if o.err != nil {
			continue
		}
		submit, fetch = append(submit, ms(o.submitDur)), append(fetch, ms(o.fetchDur))
		detect = append(detect, ms(o.detectDelay))
		if o.res.Trace == nil || o.res.Cached {
			continue
		}
		for _, sp := range o.res.Trace.Spans {
			switch sp.Stage {
			case "queue_wait":
				queue = append(queue, float64(sp.DurationNS)/1e6)
			case "execute":
				exec = append(exec, float64(sp.DurationNS)/1e6)
			}
		}
	}
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	submitted := after.Submitted - before.Submitted
	planHits := after.PlanCacheHits - before.PlanCacheHits
	planMiss := after.PlanCacheMisses - before.PlanCacheMisses
	for _, m := range []metric{
		submit.p50Metric("service.submit_ms", "ms"), submit.tailMetric("service.submit_tail_ms", "ms"),
		fetch.p50Metric("service.fetch_ms", "ms"), fetch.tailMetric("service.fetch_tail_ms", "ms"),
		queue.p50Metric("service.queue_wait_ms", "ms"), queue.tailMetric("service.queue_wait_tail_ms", "ms"),
		exec.p50Metric("service.execute_ms", "ms"), exec.tailMetric("service.execute_tail_ms", "ms"),
		valueMetric("service.result_hit_ratio", ratio(after.CacheHits-before.CacheHits, submitted), "frac", "ratio", int(submitted)),
		valueMetric("service.singleflight_ratio", ratio(after.SingleFlightHits-before.SingleFlightHits, submitted), "frac", "ratio", int(submitted)),
		valueMetric("service.plan_hit_ratio", ratio(planHits, planHits+planMiss), "frac", "ratio", int(planHits+planMiss)),
		countMetric("service.rebinds", float64(after.PlanRebinds-before.PlanRebinds), "count"),
		valueMetric("service.batch_mean", ratio(after.Executed-before.Executed, after.Batches-before.Batches), "jobs", "ratio", int(after.Batches-before.Batches)),
		countMetric("service.rejected", float64(after.RejectedQueueFull+after.RejectedTooLarge+after.RejectedInvalid-
			before.RejectedQueueFull-before.RejectedTooLarge-before.RejectedInvalid), "count"),
		valueMetric("store.open_s", openS, "s", "once", 1),
		countMetric("store.spills", float64(after.StoreSpills-before.StoreSpills), "count"),
		countMetric("store.hits", float64(after.StoreHits-before.StoreHits), "count"),
		lag.p50Metric("loadgen.lag_ms", "ms"), lag.tailMetric("loadgen.lag_tail_ms", "ms"),
		detect.p50Metric("loadgen.detect_ms", "ms"), detect.tailMetric("loadgen.detect_tail_ms", "ms"),
	} {
		b.layerAdd(m)
	}
	v, n := histMedianDelta(mBefore, mAfter, "qgear_store_load_seconds")
	b.layerAdd(valueMetric("store.load_ms", v*1e3, "ms", "p50 (histogram)", n))
}
