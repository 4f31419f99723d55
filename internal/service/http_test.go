package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"baryon/internal/obs"
)

// testServer serves a default service; the returned client is single-attempt
// (Retry disabled) so error-path tests observe raw status codes instead of
// backoff loops. Retry behavior has its own tests below.
func testServer(t *testing.T) (*Service, *Client) {
	t.Helper()
	return testServerOpts(t, Options{}, HandlerOptions{})
}

func testServerOpts(t *testing.T, sopts Options, hopts HandlerOptions) (*Service, *Client) {
	t.Helper()
	s := quickService(t, sopts)
	if hopts.RunCtx == nil {
		hopts.RunCtx = context.Background()
	}
	srv := httptest.NewServer(NewHandlerOpts(s, hopts))
	t.Cleanup(srv.Close)
	return s, &Client{Base: srv.URL, Retry: RetryPolicy{MaxAttempts: 1}}
}

// TestHTTPRunSync drives the synchronous endpoint twice and checks the
// cache header transitions miss -> hit with byte-identical bodies.
func TestHTTPRunSync(t *testing.T) {
	_, c := testServer(t)
	ctx := context.Background()
	first, status, hash, err := c.RunSync(ctx, quickJob)
	if err != nil {
		t.Fatal(err)
	}
	if status != "miss" {
		t.Fatalf("first run cache status %q, want miss", status)
	}
	if !strings.HasPrefix(hash, "sha256:") {
		t.Fatalf("malformed hash header %q", hash)
	}
	second, status2, hash2, err := c.RunSync(ctx, quickJob)
	if err != nil {
		t.Fatal(err)
	}
	if status2 != "hit" {
		t.Fatalf("second run cache status %q, want hit", status2)
	}
	if hash2 != hash || !bytes.Equal(first, second) {
		t.Fatal("cache-served response differs from the simulated one")
	}
}

// TestHTTPSubmitPollResult covers the async path end to end over the wire.
func TestHTTPSubmitPollResult(t *testing.T) {
	_, c := testServer(t)
	ctx := context.Background()
	st, err := c.Submit(ctx, quickJob)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.State != StateDone {
		if st.State == StateFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		if st, err = c.Status(ctx, st.Hash); err != nil {
			t.Fatal(err)
		}
	}
	data, err := c.Result(ctx, st.Hash)
	if err != nil {
		t.Fatal(err)
	}
	sync, _, _, err := c.RunSync(ctx, quickJob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, sync) {
		t.Fatal("async result differs from the synchronous bundle")
	}
}

// TestHTTPErrors pins the failure-path status codes.
func TestHTTPErrors(t *testing.T) {
	s, c := testServer(t)
	ctx := context.Background()

	if _, _, _, err := c.RunSync(ctx, Job{Design: "NoSuch", Workload: "505.mcf_r"}); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Fatalf("bad design: %v, want 400", err)
	}
	if _, err := c.Status(ctx, "sha256:unknown"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown status: %v, want 404", err)
	}
	if _, err := c.Result(ctx, "sha256:unknown"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown result: %v, want 404", err)
	}
	// An unknown field is a client error, not silently ignored: job schema
	// growth must never make old daemons mis-key new submissions.
	resp, err := http.Post(c.Base+"/api/v1/run", "application/json",
		strings.NewReader(`{"design":"Baryon","workload":"505.mcf_r","cacheWays":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown job field: %d, want 400", resp.StatusCode)
	}

	s.Drain()
	if _, _, _, err := c.RunSync(ctx, quickJob); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("draining run: %v, want 503", err)
	}
	resp, err = http.Get(c.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", resp.StatusCode)
	}
}

// TestHTTPMetricsLint scrapes /metrics after traffic and runs the exposition
// through the in-repo OpenMetrics linter.
func TestHTTPMetricsLint(t *testing.T) {
	_, c := testServer(t)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, _, _, err := c.RunSync(ctx, quickJob); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("content type %q", ct)
	}
	if err := obs.LintOpenMetrics(resp.Body); err != nil {
		t.Fatalf("/metrics is not valid OpenMetrics: %v", err)
	}
}

// TestHTTPMetricsGauges checks that the point-in-time queue and cache values
// on /metrics are typed gauge with unsuffixed samples, so a rate() over them
// is never taken, while the cumulative job counts stay counters.
func TestHTTPMetricsGauges(t *testing.T) {
	_, c := testServer(t)
	if _, _, _, err := c.RunSync(context.Background(), quickJob); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintOpenMetrics(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics is not valid OpenMetrics: %v", err)
	}
	out := string(body)
	for _, fam := range []string{"queue_running", "queue_waiting", "queue_queued",
		"queue_syncWaiters", "cache_entries", "cache_degraded"} {
		name := "baryon_" + fam
		if !strings.Contains(out, "# TYPE "+name+" gauge\n") {
			t.Errorf("%s is not typed gauge", name)
		}
		if strings.Contains(out, name+"_total") {
			t.Errorf("%s has a _total sample", name)
		}
		if !strings.Contains(out, "\n"+name+" ") {
			t.Errorf("%s has no unsuffixed sample", name)
		}
	}
	if !strings.Contains(out, "# TYPE baryon_jobs_completed counter\nbaryon_jobs_completed_total 1\n") {
		t.Errorf("jobs.completed is not a counter at 1:\n%s", out)
	}
}

// TestHTTPOverload429 saturates the sync-waiter bound over the wire and
// checks the refusal is a 429 carrying a Retry-After hint.
func TestHTTPOverload429(t *testing.T) {
	s, c := testServerOpts(t, Options{Workers: 1, MaxSyncWaiters: 1}, HandlerOptions{})
	release := fillWorkers(s)
	t.Cleanup(release)

	done := make(chan error, 1)
	go func() {
		_, _, _, err := c.RunSync(context.Background(), quickJob)
		done <- err
	}()
	waitCond(t, "the first request to park as a sync waiter", func() bool {
		return s.syncWaiters.Load() == 1
	})
	body, err := json.Marshal(Job{Design: "Baryon", Workload: "505.mcf_r", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.Base+"/api/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded run: HTTP %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("parked request failed after workers freed: %v", err)
	}
}

// TestHTTPDeadline pins the per-request budget: an expired X-Baryon-Deadline
// answers 504, a malformed one 400, and the Client's Deadline field sends the
// header on every request.
func TestHTTPDeadline(t *testing.T) {
	s, c := testServerOpts(t, Options{Workers: 1}, HandlerOptions{})
	release := fillWorkers(s)
	t.Cleanup(release)

	body, err := json.Marshal(quickJob)
	if err != nil {
		t.Fatal(err)
	}
	post := func(deadline string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, c.Base+"/api/v1/run", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(DeadlineHeader, deadline)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post("30ms"); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: HTTP %d, want 504", resp.StatusCode)
	}
	if resp := post("soon"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline: HTTP %d, want 400", resp.StatusCode)
	}
	if n := s.deadlinesExceeded.Load(); n != 1 {
		t.Fatalf("deadline.exceeded = %d, want 1", n)
	}
	// The client-side knob reaches the same path.
	c.Deadline = 30 * time.Millisecond
	if _, _, _, err := c.RunSync(context.Background(), quickJob); err == nil ||
		!strings.Contains(err.Error(), "504") {
		t.Fatalf("client deadline: %v, want 504", err)
	}
}

// TestAsyncDeadlineHeldOnlyByRuns pins where an async job's
// X-Baryon-Deadline lives: in the wait on a run it starts or joins. A
// submission answered from the store, or refused while draining, starts no
// wait and so holds no goroutine or timer afterwards; a submission that
// does wait still gives up when its budget runs out.
func TestAsyncDeadlineHeldOnlyByRuns(t *testing.T) {
	s := quickService(t, Options{Workers: 1})
	h := NewHandlerOpts(s, HandlerOptions{RunCtx: context.Background()})
	submit := func(job Job, deadline string, want int) {
		t.Helper()
		body, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(body))
		req.Header.Set(DeadlineHeader, deadline)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Fatalf("submit: HTTP %d, want %d: %s", rec.Code, want, rec.Body)
		}
	}

	// A budget on a job that waits still applies.
	release := fillWorkers(s)
	slow := quickJob
	slow.Seed = 99
	submit(slow, "30ms", http.StatusAccepted)
	waitCond(t, "the async budget to expire", func() bool { return s.deadlinesExceeded.Load() == 1 })
	release()

	if _, err := s.Run(context.Background(), quickJob); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		submit(quickJob, "1h", http.StatusAccepted) // a store hit
	}
	s.Drain()
	for i := 0; i < 50; i++ {
		submit(quickJob, "1h", http.StatusServiceUnavailable)
	}
	if grew := runtime.NumGoroutine() - before; grew > 10 {
		t.Fatalf("100 submissions that started no run left %d goroutines behind", grew)
	}
}

// TestPanicMiddleware: a panicking handler answers 500 with the panic logged
// (stack included) instead of tearing down the server.
func TestPanicMiddleware(t *testing.T) {
	var log bytes.Buffer
	h := withMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}), time.Second, &log)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/panics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: HTTP %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(body.String(), "internal panic") {
		t.Fatalf("500 body %q lacks the panic marker", body.String())
	}
	if !strings.Contains(log.String(), "boom") || !strings.Contains(log.String(), "goroutine") {
		t.Fatalf("panic log lacks message or stack: %s", log.String())
	}
	// The server survived: a second request is served normally.
	resp2, err := http.Get(srv.URL + "/again")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
}

// TestClientRetryConvergence: a client hitting transient 429s backs off
// (honoring Retry-After as the floor) and converges to the byte-identical
// answer the first attempt would have produced.
func TestClientRetryConvergence(t *testing.T) {
	s := quickService(t, Options{})
	inner := NewHandlerOpts(s, HandlerOptions{RunCtx: context.Background()})
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/run" && calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "7")
			http.Error(w, "injected overload", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	var delays []time.Duration
	c := &Client{Base: srv.URL, Retry: RetryPolicy{
		Sleep: func(ctx context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		},
	}}
	bundle, status, _, err := c.RunSync(context.Background(), quickJob)
	if err != nil {
		t.Fatalf("retrying run: %v", err)
	}
	if status != "miss" {
		t.Fatalf("converged status %q, want miss", status)
	}
	if got, want := c.Rejected(), uint64(2); got != want {
		t.Fatalf("client rejected = %d, want %d", got, want)
	}
	if got, want := c.Retries(), uint64(2); got != want {
		t.Fatalf("client retries = %d, want %d", got, want)
	}
	if len(delays) != 2 {
		t.Fatalf("%d backoff sleeps, want 2", len(delays))
	}
	for i, d := range delays {
		if d < 7*time.Second {
			t.Fatalf("sleep %d = %v, below the 7s Retry-After floor", i, d)
		}
	}
	direct, err := s.Run(context.Background(), quickJob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bundle, direct.Bundle) {
		t.Fatal("retried response differs from the direct bundle bytes")
	}
}

// TestClientRetryExhaustion: a persistently overloaded server exhausts the
// attempt budget and the last rejection surfaces as the error.
func TestClientRetryExhaustion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "still overloaded", http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	var sleeps int
	c := &Client{Base: srv.URL, Retry: RetryPolicy{
		MaxAttempts: 3,
		Sleep: func(ctx context.Context, d time.Duration) error {
			sleeps++
			return nil
		},
	}}
	_, _, _, err := c.RunSync(context.Background(), quickJob)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("exhausted retries: %v, want a 503 error", err)
	}
	if sleeps != 2 || c.Retries() != 2 || c.Rejected() != 3 {
		t.Fatalf("sleeps=%d retries=%d rejected=%d, want 2/2/3", sleeps, c.Retries(), c.Rejected())
	}
}

// TestHTTPCatalogs checks the designs and workloads listings are non-empty
// and contain the canonical entries.
func TestHTTPCatalogs(t *testing.T) {
	_, c := testServer(t)
	for path, want := range map[string]string{
		"/api/v1/designs":   `"Baryon"`,
		"/api/v1/workloads": `"505.mcf_r"`,
	} {
		resp, err := http.Get(c.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), want) {
			t.Fatalf("%s: status %d body %s", path, resp.StatusCode, buf.String())
		}
	}
}

// The async half of the Client. Only these tests drive the async API over
// the wire; cmd/loadgen uses RunSync.

// Submit enqueues a job via POST /api/v1/jobs.
func (c *Client) Submit(ctx context.Context, job Job) (JobStatus, error) {
	body, err := json.Marshal(job)
	if err != nil {
		return JobStatus{}, err
	}
	data, _, err := c.do(ctx, http.MethodPost, "/api/v1/jobs", body, http.StatusAccepted)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Status fetches a submitted job's status by hash.
func (c *Client) Status(ctx context.Context, hash string) (JobStatus, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+hash, nil, http.StatusOK)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Result fetches a completed job's bundle bytes by hash.
func (c *Client) Result(ctx context.Context, hash string) ([]byte, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+hash+"/result", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return data, nil
}
