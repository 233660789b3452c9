package service

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/qasm"
	"qgear/internal/sampling"
	"qgear/internal/telemetry"
)

// The HTTP JSON API:
//
//	POST /v1/jobs          submit a job; returns the job snapshot
//	GET  /v1/jobs/{id}     poll a job's state (?wait_ms=N long-polls)
//	GET  /v1/results/{id}  fetch a finished job's result
//	GET  /v1/stats         server counters, hit rate, latency histograms
//	GET  /v1/healthz       liveness, version, uptime, queue depth
//	GET  /metrics          Prometheus text exposition
//
// POST /v1/jobs takes a polymorphic envelope discriminated by "kind":
// "simulate" (probabilities/counts), "expectation" (exact ⟨H⟩),
// "sweep" (one parameterized circuit at many points), and "gradient"
// (parameter-shift ∂⟨H⟩/∂θ). Envelopes carrying a "kind" parse
// strictly — unknown fields are rejected — while legacy bodies without
// one are still accepted as bare simulate/expectation submissions and
// answered with a "Deprecation: true" header. Circuits are submitted
// either as OpenQASM 2.0 text ("qasm") or as a structured op list
// ("circuit").
//
// Every error response is the uniform envelope
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": N}}
//
// with machine-readable codes: invalid_request (400/405),
// not_found (404), too_large (413/422), queue_full (429, with
// retry_after_ms and a Retry-After header), unavailable (503), and
// deadline_exceeded (504).

// WireOp is one operation of a structured circuit submission. Gate
// names are the canonical lowercase spellings of internal/gate ("h",
// "cx", "ry", "cr1", "measure", ...).
type WireOp struct {
	Gate   string    `json:"gate"`
	Qubits []int     `json:"qubits,omitempty"`
	Params []float64 `json:"params,omitempty"`
	Clbit  int       `json:"clbit,omitempty"`
}

// WireCircuit is the structured circuit form of the submit payload.
type WireCircuit struct {
	Name   string   `json:"name,omitempty"`
	Qubits int      `json:"qubits"`
	Clbits int      `json:"clbits"`
	Ops    []WireOp `json:"ops"`
}

// SubmitRequest is the POST /v1/jobs payload: a polymorphic envelope
// discriminated by Kind. Exactly one of Circuit and QASM must be set.
//
//   - "simulate" — probabilities, plus sampled counts when Shots > 0;
//   - "expectation" — the exact ⟨H⟩ of Hamiltonian on the final state
//     (no shots);
//   - "sweep" — the circuit is a parameterized skeleton evaluated at
//     every Points entry: per-point ⟨H⟩ with a Hamiltonian (Shots must
//     be 0), per-point histograms without one (Shots required);
//   - "gradient" — exact parameter-shift ∂⟨H⟩/∂θ at the circuit's own
//     parameter values (requires Hamiltonian).
//
// Bodies carrying Kind parse strictly (unknown fields are rejected
// with invalid_request). A body without it is the deprecated legacy
// form: parsed leniently as simulate — or expectation when a
// Hamiltonian is present — and answered with "Deprecation: true".
type SubmitRequest struct {
	Kind        string           `json:"kind,omitempty"` // "" | "simulate" | "expectation" | "sweep" | "gradient"
	Circuit     *WireCircuit     `json:"circuit,omitempty"`
	QASM        string           `json:"qasm,omitempty"`
	Shots       int              `json:"shots,omitempty"`
	Seed        uint64           `json:"seed,omitempty"`
	Hamiltonian *WireHamiltonian `json:"hamiltonian,omitempty"`
	// Points is the sweep's parameter matrix: one flat vector per
	// point, each with one value per parameter slot of the circuit in
	// program order. Only valid with kind "sweep".
	Points [][]float64 `json:"points,omitempty"`
	// TimeoutMs bounds this job's lifetime in milliseconds (see
	// SubmitOptions.TimeoutMs); a job that runs out reports 504 on its
	// result.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// WirePauli is one factor of a wire-form Pauli term.
type WirePauli struct {
	Q int    `json:"q"`
	P string `json:"p"` // "X" | "Y" | "Z" (case-insensitive)
}

// WireTerm is one weighted Pauli string in wire form.
type WireTerm struct {
	Coef   float64     `json:"coef"`
	Paulis []WirePauli `json:"paulis,omitempty"` // empty = identity term
}

// WireHamiltonian is the JSON Hamiltonian of an expectation job.
type WireHamiltonian struct {
	Qubits int        `json:"qubits"`
	Terms  []WireTerm `json:"terms"`
}

// ToHamiltonian materializes and validates the wire form.
func (w *WireHamiltonian) ToHamiltonian() (*observable.Hamiltonian, error) {
	h := &observable.Hamiltonian{NumQubits: w.Qubits}
	for i, term := range w.Terms {
		ops := make(map[int]observable.Pauli, len(term.Paulis))
		for _, p := range term.Paulis {
			var f observable.Pauli
			switch strings.ToUpper(p.P) {
			case "X":
				f = observable.X
			case "Y":
				f = observable.Y
			case "Z":
				f = observable.Z
			default:
				return nil, fmt.Errorf("hamiltonian term %d: unknown pauli %q", i, p.P)
			}
			if _, dup := ops[p.Q]; dup {
				return nil, fmt.Errorf("hamiltonian term %d: duplicate factor on qubit %d", i, p.Q)
			}
			ops[p.Q] = f
		}
		h.Add(observable.NewTerm(term.Coef, ops))
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// FromHamiltonian renders a Hamiltonian in wire form (clients, bench).
func FromHamiltonian(h *observable.Hamiltonian) *WireHamiltonian {
	w := &WireHamiltonian{Qubits: h.NumQubits, Terms: make([]WireTerm, len(h.Terms))}
	for i, t := range h.Terms {
		qs := make([]int, 0, len(t.Ops))
		for q := range t.Ops {
			qs = append(qs, q)
		}
		sort.Ints(qs)
		wt := WireTerm{Coef: t.Coef}
		for _, q := range qs {
			wt.Paulis = append(wt.Paulis, WirePauli{Q: q, P: t.Ops[q].String()})
		}
		w.Terms[i] = wt
	}
	return w
}

// ToCircuit materializes the wire form into a validated circuit.
func (w *WireCircuit) ToCircuit() (*circuit.Circuit, error) {
	c := &circuit.Circuit{Name: w.Name, NumQubits: w.Qubits, NumClbits: w.Clbits}
	c.Ops = make([]circuit.Op, len(w.Ops))
	for i, op := range w.Ops {
		g, err := gate.Parse(op.Gate)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		c.Ops[i] = circuit.Op{
			Gate:   g,
			Qubits: append([]int(nil), op.Qubits...),
			Params: append([]float64(nil), op.Params...),
			Clbit:  op.Clbit,
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// FromCircuit renders a circuit in wire form (used by clients like
// qgear-bench load).
func FromCircuit(c *circuit.Circuit) *WireCircuit {
	w := &WireCircuit{Name: c.Name, Qubits: c.NumQubits, Clbits: c.NumClbits}
	w.Ops = make([]WireOp, len(c.Ops))
	for i, op := range c.Ops {
		w.Ops[i] = WireOp{
			Gate:   op.Gate.String(),
			Qubits: append([]int(nil), op.Qubits...),
			Params: append([]float64(nil), op.Params...),
			Clbit:  op.Clbit,
		}
	}
	return w
}

// TopProb is one entry of the result's top-probability list.
type TopProb struct {
	Index       uint64  `json:"index"`
	Bitstring   string  `json:"bitstring"`
	Probability float64 `json:"p"`
}

// ResultResponse is the GET /v1/results/{id} payload. The full
// probability vector (2^n entries) is included only when requested
// with ?full=1; by default the top-k states carry the distribution.
type ResultResponse struct {
	ID            string         `json:"id"`
	State         JobState       `json:"state"`
	Cached        bool           `json:"cached"`
	Target        string         `json:"target"`
	DurationMS    float64        `json:"duration_ms"`
	NumQubits     int            `json:"num_qubits"`
	Top           []TopProb      `json:"top,omitempty"`
	Probabilities []float64      `json:"probabilities,omitempty"`
	Counts        map[string]int `json:"counts,omitempty"`
	GateCount     int            `json:"gate_count"`
	FusedOps      int            `json:"fused_ops"`
	// ExpValue/ExpTerms are set on expectation jobs: the exact ⟨H⟩ and
	// the number of Pauli terms evaluated (no probabilities, no counts).
	ExpValue *float64 `json:"expval,omitempty"`
	ExpTerms int      `json:"exp_terms,omitempty"`
	// TileBits and PlanStats describe the compiled execution plan the
	// run used (absent on the per-gate path).
	TileBits  int               `json:"tile_bits,omitempty"`
	PlanStats *kernel.PlanStats `json:"plan_stats,omitempty"`
	// Trace is the per-stage timing breakdown of how this result was
	// produced. Results served from the cache or a single-flight join
	// carry the original execution's trace (Cached marks that case), so
	// the span sum can exceed the serving job's own wall time.
	Trace *telemetry.Trace `json:"trace,omitempty"`
	// Sweep artifacts (kind "sweep"): one entry per parameter point —
	// exact ⟨H⟩ values for Hamiltonian sweeps, bitstring histograms for
	// sampling sweeps. SweepPoints always carries the full point count,
	// even when the payload lists fewer entries (see the truncation
	// rules at truncationLimit). Rebinds versus SweepCompiles reports
	// how points were produced: rebinds of one compiled plan, or
	// per-point compiles under a value-dependent configuration.
	SweepPoints   int              `json:"sweep_points,omitempty"`
	SweepValues   []float64        `json:"sweep_values,omitempty"`
	SweepCounts   []map[string]int `json:"sweep_counts,omitempty"`
	Rebinds       int              `json:"rebinds,omitempty"`
	SweepCompiles int              `json:"sweep_compiles,omitempty"`
	// Gradient is the parameter-shift ∂⟨H⟩/∂θ vector of a kind
	// "gradient" job (ExpValue carries ⟨H⟩ at the base point).
	Gradient []float64 `json:"gradient,omitempty"`
	// Truncated marks a payload whose sweep or gradient entries were
	// elided by the default top-k rule; ?full=1 returns everything.
	Truncated bool `json:"truncated,omitempty"`
}

// HealthResponse is the GET /v1/healthz payload: enough to tell a
// probe not just that the process is up, but which build it is and how
// loaded it is.
type HealthResponse struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Workers       int     `json:"workers"`
}

// Handler returns the HTTP API bound to this server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	mux.HandleFunc("/v1/results/", s.handleResult)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/store", s.handleStore)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.reg.Handler())
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Version:       Version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueSize,
		Workers:       s.cfg.WorkerPool,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Machine-readable error codes of the uniform error envelope. Clients
// branch on these, never on message text or ad-hoc body shapes.
const (
	CodeInvalidRequest   = "invalid_request"
	CodeNotFound         = "not_found"
	CodeTooLarge         = "too_large"
	CodeQueueFull        = "queue_full"
	CodeUnavailable      = "unavailable"
	CodeDeadlineExceeded = "deadline_exceeded"
)

// APIError is the machine-readable error body of every non-2xx
// response: a stable code to branch on, a human message, and — for
// queue_full — the retry hint in milliseconds (also sent as a
// Retry-After header).
type APIError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMs int    `json:"retry_after_ms,omitempty"`
}

// ErrorResponse is the uniform error envelope: {"error": {...}}.
type ErrorResponse struct {
	Error APIError `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	e := APIError{Code: code, Message: err.Error()}
	if code == CodeQueueFull {
		e.RetryAfterMs = retryAfterMs
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, status, ErrorResponse{Error: e})
}

// maxSubmitBytes bounds one submission body (a few hundred thousand
// ops); oversized payloads fail fast instead of exhausting memory.
const maxSubmitBytes = 16 << 20

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeInvalidRequest, errors.New("POST required"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				fmt.Errorf("request body exceeds %d bytes", maxSubmitBytes))
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	// Version discrimination: a body carrying "kind" is the polymorphic
	// envelope and parses strictly — a misspelled field fails loudly
	// instead of silently doing something else. A body without it is
	// the legacy bare form (simulate, or expectation via the
	// hamiltonian field), still parsed leniently but flagged with a
	// Deprecation header so clients can find themselves in logs.
	var probe struct {
		Kind *string `json:"kind"`
	}
	legacy := json.Unmarshal(body, &probe) == nil && probe.Kind == nil
	if legacy {
		w.Header().Set("Deprecation", "true")
	}
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if !legacy {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	var c *circuit.Circuit
	switch {
	case req.Circuit != nil && req.QASM != "":
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("set exactly one of circuit and qasm"))
		return
	case req.Circuit != nil:
		c, err = req.Circuit.ToCircuit()
	case req.QASM != "":
		c, err = qasm.Parse(req.QASM)
	default:
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("missing circuit"))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	opts := SubmitOptions{Shots: req.Shots, Seed: req.Seed, TimeoutMs: req.TimeoutMs}
	switch req.Kind {
	case "", "simulate":
		if req.Kind == "simulate" && req.Hamiltonian != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("kind simulate does not take a hamiltonian"))
			return
		}
		if len(req.Points) > 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, errors.New(`sweep points require kind "sweep"`))
			return
		}
	case "expectation":
		if req.Hamiltonian == nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("kind expectation requires a hamiltonian"))
			return
		}
		if len(req.Points) > 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, errors.New(`sweep points require kind "sweep"`))
			return
		}
	case "sweep":
		if len(req.Points) == 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("kind sweep requires points"))
			return
		}
		opts.SweepPoints = req.Points
	case "gradient":
		if req.Hamiltonian == nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("kind gradient requires a hamiltonian"))
			return
		}
		if len(req.Points) > 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, errors.New("kind gradient derives its own sweep; points are not accepted"))
			return
		}
		opts.Gradient = true
	default:
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("unknown job kind %q", req.Kind))
		return
	}
	if req.Hamiltonian != nil {
		h, herr := req.Hamiltonian.ToHamiltonian()
		if herr != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, herr)
			return
		}
		opts.Hamiltonian = h
	}
	info, err := s.Submit(c, opts)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Shed load with a hint: the queue drains at batch granularity,
		// so a short fixed horizon beats an exponential guess. Clients
		// (qgear-bench load, the serve warm-start pusher) honor this.
		writeError(w, http.StatusTooManyRequests, CodeQueueFull, err)
	case errors.Is(err, ErrTooLarge):
		writeError(w, http.StatusUnprocessableEntity, CodeTooLarge, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, info)
	}
}

// retryAfterSeconds is the Retry-After hint on 429 responses (the
// header form; retryAfterMs is the same hint inside the error body).
// The queue turns over in well under a second on every supported
// target, but Retry-After has whole-second granularity; 1 is the
// tightest honest hint.
const retryAfterSeconds = "1"

// retryAfterMs mirrors retryAfterSeconds in the queue_full error body.
const retryAfterMs = 1000

func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeInvalidRequest, errors.New("GET required"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	var info JobInfo
	var err error
	if wv := r.URL.Query().Get("wait_ms"); wv != "" {
		// Long poll: hold the request until the job finishes or the
		// budget elapses, then return the current snapshot either way.
		// Budgets are clamped to the server's MaxWaitMs, never rejected,
		// so clients can ask for "as long as you allow".
		n, perr := strconv.Atoi(wv)
		if perr != nil || n < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("bad wait_ms %q", wv))
			return
		}
		if n > s.cfg.MaxWaitMs {
			n = s.cfg.MaxWaitMs
		}
		info, err = s.WaitFor(id, time.Duration(n)*time.Millisecond)
	} else {
		info, err = s.Job(id)
	}
	if errors.Is(err, ErrNotFound) {
		writeError(w, http.StatusNotFound, CodeNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// Artifact truncation — the one place the rules live, applied
// uniformly to every artifact shape a result can carry:
//
//   - probability vectors render as the top-k basis states by
//     probability (descending; k defaults to 16, ?top=N raises it to
//     at most 4096);
//   - sweep artifacts (per-point expectation values or histograms) and
//     gradient vectors render their first k entries under the same k;
//     sweep_points always reports the full point count and "truncated"
//     marks an elided payload;
//   - ?full=1 disables truncation entirely: the whole 2^n probability
//     vector, every sweep point, every gradient entry.
func truncationLimit(q url.Values) (k int, full bool) {
	if q.Get("full") == "1" {
		return 0, true
	}
	k = 16
	if kv := q.Get("top"); kv != "" {
		if n, err := strconv.Atoi(kv); err == nil && n > 0 && n <= 4096 {
			k = n
		}
	}
	return k, false
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeInvalidRequest, errors.New("GET required"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/results/")
	// One consistent read: snapshot state and result presence agree.
	info, res, err := s.Lookup(id)
	if errors.Is(err, ErrNotFound) {
		writeError(w, http.StatusNotFound, CodeNotFound, err)
		return
	}
	if errors.Is(err, ErrNotDone) {
		writeJSON(w, http.StatusAccepted, info)
		return
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		// The job ran out of budget (in queue or mid-execution).
		writeError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded, err)
		return
	}
	if err != nil {
		// Failed job: surface the simulation error with the snapshot.
		writeJSON(w, http.StatusOK, info)
		return
	}
	k, full := truncationLimit(r.URL.Query())
	writeJSON(w, http.StatusOK, buildResultResponse(info, res, k, full))
}

func numQubits(res *backend.Result) int {
	if res.NumQubits > 0 {
		return res.NumQubits
	}
	n := 0
	for 1<<uint(n) < len(res.Probabilities) {
		n++
	}
	return n
}

// buildResultResponse renders a finished result under the truncation
// rules documented at truncationLimit.
func buildResultResponse(info JobInfo, res *backend.Result, k int, full bool) ResultResponse {
	resp := ResultResponse{
		ID:            info.ID,
		State:         info.State,
		Cached:        info.Cached,
		Target:        string(res.Target),
		DurationMS:    float64(res.Duration.Microseconds()) / 1e3,
		NumQubits:     numQubits(res),
		GateCount:     res.KernelStats.SourceOps,
		FusedOps:      res.KernelStats.EmittedOps,
		ExpValue:      res.ExpValue,
		ExpTerms:      res.ExpTerms,
		TileBits:      res.TileBits,
		PlanStats:     res.PlanStats,
		Trace:         res.Trace,
		SweepPoints:   res.SweepPoints,
		Rebinds:       res.Rebinds,
		SweepCompiles: res.SweepCompiles,
	}
	if len(res.Counts) > 0 {
		resp.Counts = make(map[string]int, len(res.Counts))
		for idx, n := range res.Counts {
			resp.Counts[sampling.Bitstring(idx, resp.NumQubits)] = n
		}
	}
	if full {
		resp.Probabilities = res.Probabilities
	} else if len(res.Probabilities) > 0 {
		resp.Top = topProbs(res.Probabilities, k, resp.NumQubits)
	}
	sv, grad, sc := res.SweepValues, res.Gradient, res.SweepCounts
	if !full {
		if len(sv) > k {
			sv, resp.Truncated = sv[:k], true
		}
		if len(grad) > k {
			grad, resp.Truncated = grad[:k], true
		}
		if len(sc) > k {
			sc, resp.Truncated = sc[:k], true
		}
	}
	resp.SweepValues = sv
	resp.Gradient = grad
	if len(sc) > 0 {
		resp.SweepCounts = make([]map[string]int, len(sc))
		for i, cts := range sc {
			m := make(map[string]int, len(cts))
			for idx, n := range cts {
				m[sampling.Bitstring(idx, resp.NumQubits)] = n
			}
			resp.SweepCounts[i] = m
		}
	}
	return resp
}

// topHeap is a bounded min-heap on (probability, index): the root is
// the current weakest of the kept top-k entries. "Worse" means lower
// probability, ties broken by larger index, so the surviving set (and
// hence the sorted output) matches a full descending sort.
type topHeap []TopProb

func (h topHeap) Len() int { return len(h) }
func (h topHeap) Less(a, b int) bool {
	if h[a].Probability != h[b].Probability {
		return h[a].Probability < h[b].Probability
	}
	return h[a].Index > h[b].Index
}
func (h topHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *topHeap) Push(x any)   { *h = append(*h, x.(TopProb)) }
func (h *topHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h topHeap) worseThan(p float64, i uint64) bool {
	if h[0].Probability != p {
		return h[0].Probability < p
	}
	return h[0].Index > i
}

// topProbs returns the k highest-probability basis states in
// descending order (ties broken by index). One O(n log k) pass — no
// index-slice allocation, which matters for 2^28-amplitude results.
func topProbs(probs []float64, k int, nq int) []TopProb {
	h := make(topHeap, 0, k)
	for i, p := range probs {
		if p == 0 {
			continue
		}
		switch {
		case len(h) < k:
			heap.Push(&h, TopProb{Index: uint64(i), Probability: p})
		case h.worseThan(p, uint64(i)):
			h[0] = TopProb{Index: uint64(i), Probability: p}
			heap.Fix(&h, 0)
		}
	}
	out := make([]TopProb, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(TopProb)
	}
	for i := range out {
		out[i].Bitstring = sampling.Bitstring(out[i].Index, nq)
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeInvalidRequest, errors.New("GET required"))
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// StoreResponse is the GET /v1/store payload: what the persistent
// artifact store holds on disk.
type StoreResponse struct {
	Enabled       bool   `json:"enabled"`
	Dir           string `json:"dir,omitempty"`
	ResultEntries int    `json:"result_entries"`
	PlanEntries   int    `json:"plan_entries"`
	Bytes         int64  `json:"bytes"`
	// MaxBytes is the on-disk budget (0 = unbounded); the GC fields
	// report its enforcement and ManifestRecords/BootScanned how the
	// index was built at the last open.
	MaxBytes            int64  `json:"max_bytes"`
	GCEvictions         uint64 `json:"gc_evictions"`
	GCEvictedBytes      int64  `json:"gc_evicted_bytes"`
	GCRejected          uint64 `json:"gc_rejected"`
	ManifestRecords     uint64 `json:"manifest_records"`
	ManifestCompactions uint64 `json:"manifest_compactions"`
	BootScanned         bool   `json:"boot_scanned"`
}

func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeInvalidRequest, errors.New("GET required"))
		return
	}
	resp := StoreResponse{}
	if s.store != nil {
		ss := s.store.Stats()
		resp = StoreResponse{
			Enabled:             true,
			Dir:                 ss.Dir,
			ResultEntries:       ss.ResultEntries,
			PlanEntries:         ss.PlanEntries,
			Bytes:               ss.Bytes,
			MaxBytes:            ss.MaxBytes,
			GCEvictions:         ss.GCEvictions,
			GCEvictedBytes:      ss.GCEvictedBytes,
			GCRejected:          ss.GCRejected,
			ManifestRecords:     ss.ManifestRecords,
			ManifestCompactions: ss.ManifestCompactions,
			BootScanned:         ss.BootScanned,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
