package service

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/randcirc"
)

// newTestServer builds a server with small, deterministic sizing.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func testCircuit(t *testing.T, qubits, blocks int, seed uint64) *circuit.Circuit {
	t.Helper()
	c, err := randcirc.Generate(randcirc.Spec{Qubits: qubits, Blocks: blocks, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunMatchesBackend(t *testing.T) {
	s := newTestServer(t, Config{FusionWindow: 2})
	c := circuit.GHZ(10, false)
	res, info, err := s.Run(context.Background(), c, SubmitOptions{Shots: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone || info.Cached {
		t.Fatalf("info = %+v", info)
	}
	ref, err := backend.Run(c, backend.Config{Target: backend.TargetNvidia, FusionWindow: 2, Shots: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probabilities) != len(ref.Probabilities) {
		t.Fatalf("prob lengths %d vs %d", len(res.Probabilities), len(ref.Probabilities))
	}
	for i := range res.Probabilities {
		if res.Probabilities[i] != ref.Probabilities[i] {
			t.Fatalf("prob[%d] = %g, want %g", i, res.Probabilities[i], ref.Probabilities[i])
		}
	}
	if len(res.Counts) != len(ref.Counts) {
		t.Fatalf("counts differ: %v vs %v", res.Counts, ref.Counts)
	}
	for k, v := range ref.Counts {
		if res.Counts[k] != v {
			t.Fatalf("counts[%d] = %d, want %d", k, res.Counts[k], v)
		}
	}
}

// TestSingleFlight races concurrent submissions of one content address:
// exactly one simulation must run, everyone else attaches or hits.
func TestSingleFlight(t *testing.T) {
	s := newTestServer(t, Config{WorkerPool: 2, BatchWindow: 20 * time.Millisecond})
	c := testCircuit(t, 12, 30, 1)
	const n = 32
	var wg sync.WaitGroup
	ids := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, err := s.Submit(c, SubmitOptions{Shots: 100, Seed: 3})
			ids[i], errs[i] = info.ID, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range ids {
		info, err := s.Wait(ctx, id)
		if err != nil || info.State != StateDone {
			t.Fatalf("job %s: %+v, %v", id, info, err)
		}
	}
	st := s.Stats()
	if st.Executed != 1 {
		t.Fatalf("executed %d simulations for %d identical submissions", st.Executed, n)
	}
	if got := st.CacheHits + st.SingleFlightHits; got != n-1 {
		t.Fatalf("hits+joins = %d, want %d", got, n-1)
	}
	// Every result pointer resolves and agrees.
	first, err := s.Result(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		r, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if r.Counts.Total() != first.Counts.Total() {
			t.Fatalf("diverging results across single-flight jobs")
		}
	}
}

// TestLRUEvictionOrder checks the cache's recency discipline end to
// end: a re-submission refreshes recency, so the cold entry is the one
// evicted.
func TestLRUEvictionOrder(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 2, WorkerPool: 1, MaxBatch: 1})
	ctx := context.Background()
	a := testCircuit(t, 8, 10, 1)
	b := testCircuit(t, 8, 10, 2)
	c := testCircuit(t, 8, 10, 3)
	keyOf := func(circ *circuit.Circuit) string { return s.key(circ, SubmitOptions{}) }

	for _, circ := range []*circuit.Circuit{a, b} {
		if _, _, err := s.Run(ctx, circ, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a: now b is least recently used.
	if _, info, err := s.Run(ctx, a, SubmitOptions{}); err != nil || !info.Cached {
		t.Fatalf("expected cache hit for a: %+v, %v", info, err)
	}
	// c evicts b.
	if _, _, err := s.Run(ctx, c, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	want := []string{keyOf(c), keyOf(a)}
	got := s.cacheKeys()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("cache order %v, want %v", got, want)
	}
	st := s.Stats()
	if st.CacheEvictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.CacheEvictions)
	}
	// b is gone: resubmitting executes again.
	before := s.Stats().Executed
	if _, info, err := s.Run(ctx, b, SubmitOptions{}); err != nil || info.Cached {
		t.Fatalf("expected miss for evicted b: %+v, %v", info, err)
	}
	if after := s.Stats().Executed; after != before+1 {
		t.Fatalf("executed %d -> %d, want +1", before, after)
	}
}

// TestBatchMatchesSequential coalesces a burst of distinct jobs into
// shared core.Run calls and verifies each job's probabilities and
// counts are bit-identical to a standalone backend.Run.
func TestBatchMatchesSequential(t *testing.T) {
	s := newTestServer(t, Config{
		Target:       backend.TargetNvidiaMQPU,
		Devices:      4,
		WorkerPool:   1,
		MaxBatch:     8,
		BatchWindow:  200 * time.Millisecond,
		FusionWindow: 2,
	})
	const n = 6
	circs := make([]*circuit.Circuit, n)
	for i := range circs {
		circs[i] = testCircuit(t, 10, 20, uint64(100+i))
	}
	ids := make([]string, n)
	for i, c := range circs {
		info, err := s.Submit(c, SubmitOptions{Shots: 200, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, id := range ids {
		if info, err := s.Wait(ctx, id); err != nil || info.State != StateDone {
			t.Fatalf("job %s: %+v, %v", id, info, err)
		}
	}
	st := s.Stats()
	if st.BatchedJobs != n {
		t.Fatalf("batched jobs %d, want %d", st.BatchedJobs, n)
	}
	if st.Batches >= n {
		t.Fatalf("no coalescing: %d batches for %d jobs", st.Batches, n)
	}
	for i, id := range ids {
		got, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		// Reference runs on the server's own target/devices: coalesced
		// execution must match a standalone mqpu Run bit for bit,
		// including the mqpu per-device shot-sampling split.
		ref, err := backend.Run(circs[i], backend.Config{
			Target: backend.TargetNvidiaMQPU, Devices: 4, FusionWindow: 2, Shots: 200, Seed: uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref.Probabilities {
			if got.Probabilities[j] != ref.Probabilities[j] {
				t.Fatalf("job %d prob[%d]: %g vs %g", i, j, got.Probabilities[j], ref.Probabilities[j])
			}
		}
		if len(got.Counts) != len(ref.Counts) {
			t.Fatalf("job %d: counts size %d vs %d", i, len(got.Counts), len(ref.Counts))
		}
		for k, v := range ref.Counts {
			if got.Counts[k] != v {
				t.Fatalf("job %d counts[%d]: %d vs %d", i, k, got.Counts[k], v)
			}
		}
	}
}

// TestGracefulShutdownDrains submits a burst and closes immediately:
// every accepted job must still reach a terminal state before Close
// returns, and post-close submissions are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, Config{WorkerPool: 2, QueueSize: 64})
	const n = 12
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		info, err := s.Submit(testCircuit(t, 12, 20, uint64(i)), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		info, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateDone {
			t.Fatalf("job %s left in state %q after Close", id, info.State)
		}
	}
	if _, err := s.Submit(circuit.GHZ(4, false), SubmitOptions{}); err != ErrClosed {
		t.Fatalf("post-close submit: %v, want ErrClosed", err)
	}
}

// TestFailureIsolation: a job that exceeds the single-device qubit
// limit fails alone; batch-mates coalesced with it still succeed.
// TestFailureIsolation: a job that fails at execution time fails alone
// in its batch. Admission is disabled explicitly, so the GHZ-30 job
// reaches the engine and fails there on statevec.MaxQubits whatever
// the host's memory (the default budget is half of MemAvailable).
func TestFailureIsolation(t *testing.T) {
	s := newTestServer(t, Config{WorkerPool: 1, MaxBatch: 4, BatchWindow: 200 * time.Millisecond, MaxStateBytes: -1})
	good := circuit.GHZ(8, false)
	bad := circuit.GHZ(30, false) // over statevec.MaxQubits
	badInfo, err := s.Submit(bad, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	goodInfo, err := s.Submit(good, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	bi, err := s.Wait(ctx, badInfo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bi.State != StateFailed || bi.Error == "" {
		t.Fatalf("bad job: %+v", bi)
	}
	gi, err := s.Wait(ctx, goodInfo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gi.State != StateDone {
		t.Fatalf("good batch-mate failed too: %+v", gi)
	}
	if _, err := s.Result(badInfo.ID); err == nil {
		t.Fatal("failed job returned a result")
	}
	st := s.Stats()
	if st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("failed %d completed %d, want 1/1", st.Failed, st.Completed)
	}
}

// TestFailureIsolationAdmission: under an explicit small budget the
// same GHZ-30 circuit never reaches a worker — Submit rejects it.
func TestFailureIsolationAdmission(t *testing.T) {
	s := newTestServer(t, Config{WorkerPool: 1, MaxStateBytes: 1 << 20})
	if _, err := s.Submit(circuit.GHZ(30, false), SubmitOptions{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("GHZ-30 under a 1 MiB budget: err = %v, want ErrTooLarge", err)
	}
	if st := s.Stats(); st.RejectedTooLarge != 1 || st.Submitted != 0 || st.Failed != 0 {
		t.Fatalf("rejected %d submitted %d failed %d, want 1/0/0", st.RejectedTooLarge, st.Submitted, st.Failed)
	}
}

func TestQueueBackpressure(t *testing.T) {
	// The execution hook holds the one worker inside its first job until
	// the queue has been probed, so the test does not depend on how
	// fast this host simulates.
	// Buffered past the at most three executions (the slow job and the
	// queued ones) so the hook never blocks on started.
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // runs before the server's Close cleanup, even on t.Fatal
	cfg := Config{WorkerPool: 1, QueueSize: 1, MaxBatch: 1}
	cfg.ExecHook = func() {
		started <- struct{}{}
		<-release
	}
	s := newTestServer(t, cfg)
	slow, err := s.Submit(testCircuit(t, 16, 120, 99), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is now busy with the slow job
	// Fill the queue, then overflow it.
	var sawFull bool
	for i := 0; i < 3; i++ {
		_, err := s.Submit(testCircuit(t, 8, 5, uint64(i)), SubmitOptions{})
		if err == ErrQueueFull {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	unblock()
	if !sawFull {
		t.Fatal("bounded queue accepted more than its capacity while the worker was busy")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if info, err := s.Wait(ctx, slow.ID); err != nil || info.State != StateDone {
		t.Fatalf("slow job: %+v, %v", info, err)
	}
}

func TestSeedNormalizationSharesKey(t *testing.T) {
	s := newTestServer(t, Config{})
	c := circuit.GHZ(6, false)
	// Shots == 0: seeds must not split the content address.
	if s.key(c, SubmitOptions{Seed: 1}) != s.key(c, SubmitOptions{Seed: 2}) {
		t.Fatal("probabilities-only submissions with different seeds got different keys")
	}
	// With shots, the seed matters.
	if s.key(c, SubmitOptions{Shots: 10, Seed: 1}) == s.key(c, SubmitOptions{Shots: 10, Seed: 2}) {
		t.Fatal("sampled submissions with different seeds share a key")
	}
	// And shots themselves matter.
	if s.key(c, SubmitOptions{}) == s.key(c, SubmitOptions{Shots: 10}) {
		t.Fatal("shots ignored in key")
	}
}

func TestStatsShape(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, _, err := s.Run(context.Background(), circuit.GHZ(6, false), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Run(context.Background(), circuit.GHZ(6, false), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Submitted != 2 || st.Executed != 1 || st.CacheHits != 1 {
		t.Fatalf("stats %+v", st)
	}
	if math.Abs(st.HitRate-0.5) > 1e-9 {
		t.Fatalf("hit rate %g, want 0.5", st.HitRate)
	}
	h, ok := st.Latency[string(backend.TargetNvidia)]
	if !ok || h.Count != 1 {
		t.Fatalf("execution latency histogram missing: %+v", st.Latency)
	}
	hc, ok := st.Latency["cache"]
	if !ok || hc.Count != 1 {
		t.Fatalf("cache latency histogram missing: %+v", st.Latency)
	}
	if len(h.Counts) != len(h.UpperBoundsUS) {
		t.Fatal("histogram shape mismatch")
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total != h.Count {
		t.Fatalf("histogram counts sum %d != count %d", total, h.Count)
	}
}

func TestJobRetention(t *testing.T) {
	s := newTestServer(t, Config{MaxRetainedJobs: 3, CacheSize: -1})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 5; i++ {
		c := circuit.GHZ(4, false)
		c.RZ(float64(i+1)*0.1, 0) // distinct fingerprints
		_, info, err := s.Run(ctx, c, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	if _, err := s.Job(ids[0]); err != ErrNotFound {
		t.Fatalf("oldest job should be forgotten, got %v", err)
	}
	if _, err := s.Job(ids[4]); err != nil {
		t.Fatalf("newest job missing: %v", err)
	}
}

func TestFingerprintProperties(t *testing.T) {
	a := circuit.GHZ(8, true)
	b := circuit.GHZ(8, true)
	b.Name = "renamed"
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on the circuit name")
	}
	c := circuit.GHZ(8, false)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("measured and unmeasured GHZ share a fingerprint")
	}
	d := circuit.GHZ(9, false)
	if c.Fingerprint() == d.Fingerprint() {
		t.Fatal("different widths share a fingerprint")
	}
	e := circuit.New(4, 0).RY(0.5, 0)
	f := circuit.New(4, 0).RY(0.5000001, 0)
	if e.Fingerprint() == f.Fingerprint() {
		t.Fatal("different parameters share a fingerprint")
	}
	if len(a.Fingerprint()) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex string", a.Fingerprint())
	}
}

func TestInvalidSubmissions(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Submit(nil, SubmitOptions{}); err == nil {
		t.Fatal("nil circuit accepted")
	}
	if _, err := s.Submit(circuit.GHZ(4, false), SubmitOptions{Shots: -1}); err == nil {
		t.Fatal("negative shots accepted")
	}
	broken := &circuit.Circuit{NumQubits: 2, Ops: []circuit.Op{{Gate: 200}}}
	if _, err := s.Submit(broken, SubmitOptions{}); err == nil {
		t.Fatal("invalid circuit accepted")
	}
	if _, err := New(Config{Target: "warp-drive"}); err == nil {
		t.Fatal("unknown target accepted")
	}
	if _, err := New(Config{Target: backend.TargetNvidiaMGPU, Devices: 3}); err == nil {
		t.Fatal("mgpu with non-power-of-two devices accepted")
	}
	if _, err := s.Job("j-nope"); err != ErrNotFound {
		t.Fatalf("unknown job: %v", err)
	}
}
