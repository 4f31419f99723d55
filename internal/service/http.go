package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"baryon/internal/experiment"
	"baryon/internal/obs"
	"baryon/internal/trace"
)

// HTTP API of cmd/baryonsimd. All bodies are JSON; result payloads are the
// canonical report-bundle bytes, byte-identical for identical jobs whether
// simulated, collapsed or cache-served.
//
//	POST /api/v1/run          run a job synchronously, respond with its bundle
//	POST /api/v1/jobs         submit a job asynchronously
//	GET  /api/v1/jobs/{hash}  job status (live progress while running)
//	GET  /api/v1/jobs/{hash}/result  the completed job's bundle
//	GET  /api/v1/designs      registered design names
//	GET  /api/v1/workloads    workload names
//	GET  /metrics             cache/queue gauges (OpenMetrics)
//	GET  /healthz             liveness (503 while draining)
const (
	// CacheHeader reports how a synchronous run was served: "miss" (this
	// request simulated), "hit" (result store) or "collapsed" (rode an
	// identical in-flight request).
	CacheHeader = "X-Baryon-Cache"
	// HashHeader carries the job's content-address on run/result responses.
	HashHeader = "X-Baryon-Spec-Hash"
	// DeadlineHeader lets a client cap one request's execution budget as a
	// Go duration string ("30s"); the server clamps it to its own
	// -request-timeout when one is configured.
	DeadlineHeader = "X-Baryon-Deadline"
)

// HandlerOptions configures NewHandlerOpts beyond the service itself.
type HandlerOptions struct {
	// RunCtx bounds asynchronously submitted jobs (the daemon passes its
	// lifetime context, not a request's); nil = context.Background().
	RunCtx context.Context
	// RequestTimeout is the default and maximum per-request execution
	// budget: requests without a DeadlineHeader get it, requests with one
	// are clamped to it (0 = no server-side budget).
	RequestTimeout time.Duration
	// WriteTimeout bounds how long one response write may block on a slow
	// client before the connection is dropped (0 = no bound). Applied via
	// the connection write deadline just before the response body goes out,
	// so a stalled reader cannot pin a handler goroutine forever.
	WriteTimeout time.Duration
	// Log receives panic reports from the recovery middleware
	// (nil = os.Stderr).
	Log io.Writer
}

// requestBudget derives one request's execution context from the default
// budget and the client's DeadlineHeader, clamped to the server cap.
func requestBudget(parent context.Context, r *http.Request, cap time.Duration) (context.Context, context.CancelFunc, error) {
	budget := cap
	if h := r.Header.Get(DeadlineHeader); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil || d <= 0 {
			return nil, nil, fmt.Errorf("invalid %s header %q (want a positive Go duration like \"30s\")", DeadlineHeader, h)
		}
		if cap == 0 || d < cap {
			budget = d
		}
	}
	if budget <= 0 {
		return parent, func() {}, nil
	}
	ctx, cancel := context.WithTimeout(parent, budget)
	return ctx, cancel, nil
}

// NewHandlerOpts builds the daemon's HTTP API over s. The returned handler
// wraps every route in the failure-containment middleware: a handler panic
// becomes a 500 instead of killing the daemon, and slow clients are bounded
// by the write deadline.
func NewHandlerOpts(s *Service, opts HandlerOptions) http.Handler {
	runCtx := opts.RunCtx
	if runCtx == nil {
		runCtx = context.Background()
	}
	logw := opts.Log
	if logw == nil {
		logw = os.Stderr
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/run", func(w http.ResponseWriter, r *http.Request) {
		job, ok := decodeJob(w, r)
		if !ok {
			return
		}
		res, err := s.Resolve(job)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel, err := requestBudget(r.Context(), r, opts.RequestTimeout)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		defer cancel()
		out, err := s.RunResolved(ctx, res)
		switch {
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter()))
			httpError(w, http.StatusServiceUnavailable, err)
			return
		case errors.Is(err, ErrOverloaded):
			w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter()))
			httpError(w, http.StatusTooManyRequests, err)
			return
		case errors.Is(err, context.DeadlineExceeded):
			httpError(w, http.StatusGatewayTimeout, fmt.Errorf("request deadline exceeded: %w", err))
			return
		case err != nil:
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(HashHeader, out.Hash)
		w.Header().Set(CacheHeader, cacheStatus(out))
		w.Write(out.Bundle)
	})
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		job, ok := decodeJob(w, r)
		if !ok {
			return
		}
		// An async job's budget nests inside the daemon-lifetime context,
		// not the request's: the submitting connection may close long
		// before the job runs.
		ctx := runCtx
		if r.Header.Get(DeadlineHeader) != "" {
			bctx, cancel, err := requestBudget(runCtx, r, opts.RequestTimeout)
			if err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			// Not deferred: the budget must keep ticking after this handler
			// returns, until the job's deadline fires; the watcher then
			// releases the context's resources.
			go func() { <-bctx.Done(); cancel() }()
			ctx = bctx
		}
		st, err := s.Submit(ctx, job)
		switch {
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter()))
			httpError(w, http.StatusServiceUnavailable, err)
			return
		case errors.Is(err, ErrOverloaded):
			w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter()))
			httpError(w, http.StatusTooManyRequests, err)
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /api/v1/jobs/{hash}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Status(r.PathValue("hash"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("hash")))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /api/v1/jobs/{hash}/result", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		data, ok := s.ResultBytes(hash)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no result for %q (pending, failed or never submitted)", hash))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(HashHeader, hash)
		w.Write(data)
	})
	mux.HandleFunc("GET /api/v1/designs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, experiment.Designs())
	})
	mux.HandleFunc("GET /api/v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		names := []string{}
		for _, wl := range trace.All() {
			names = append(names, wl.Name)
		}
		writeJSON(w, http.StatusOK, names)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.OpenMetricsContentType)
		if err := obs.WriteOpenMetrics(w, s.MetricsSnapshot(), obs.OMOptions{}); err != nil {
			fmt.Fprintf(w, "# rendering error: %v\n", err)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			httpError(w, http.StatusServiceUnavailable, ErrDraining)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return withMiddleware(mux, opts.WriteTimeout, logw)
}

// withMiddleware wraps the whole mux in the failure-containment layer:
// a panicking handler answers 500 (and is logged with its stack) instead of
// tearing down the daemon's serve loop, and the connection write deadline
// bounds how long a slow or stalled client can pin a handler goroutine.
func withMiddleware(next http.Handler, writeTimeout time.Duration, logw io.Writer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				fmt.Fprintf(logw, "service: http panic serving %s %s: %v\n%s\n",
					r.Method, r.URL.Path, p, debug.Stack())
				// Best-effort: if the handler already wrote headers this is
				// a no-op on a broken response, which the client sees as
				// truncated — still contained to one request.
				httpError(w, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", p))
			}
		}()
		if writeTimeout > 0 {
			w = &deadlineWriter{ResponseWriter: w, rc: http.NewResponseController(w), timeout: writeTimeout}
		}
		next.ServeHTTP(w, r)
	})
}

// deadlineWriter arms the connection write deadline at the first byte of
// the response, not at request start: compute time (a long simulation) is
// bounded by the request budget, while the write deadline bounds only how
// long a slow or stalled client may take to drain the response.
type deadlineWriter struct {
	http.ResponseWriter
	rc      *http.ResponseController
	timeout time.Duration
	armed   bool
}

func (d *deadlineWriter) arm() {
	if !d.armed {
		d.armed = true
		// An unsupported underlying writer (some test recorders) is not an
		// error we can act on; the deadline is then simply absent.
		_ = d.rc.SetWriteDeadline(time.Now().Add(d.timeout))
	}
}

func (d *deadlineWriter) WriteHeader(code int) {
	d.arm()
	d.ResponseWriter.WriteHeader(code)
}

func (d *deadlineWriter) Write(p []byte) (int, error) {
	d.arm()
	return d.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the underlying writer through
// this wrapper.
func (d *deadlineWriter) Unwrap() http.ResponseWriter { return d.ResponseWriter }

// cacheStatus renders the CacheHeader value for an outcome.
func cacheStatus(out Outcome) string {
	switch {
	case out.CacheHit:
		return "hit"
	case out.Collapsed:
		return "collapsed"
	}
	return "miss"
}

func decodeJob(w http.ResponseWriter, r *http.Request) (Job, bool) {
	var job Job
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&job); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding job: %w", err))
		return Job{}, false
	}
	return job, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// --- Client --------------------------------------------------------------

// RetryPolicy shapes the Client's backoff loop. The zero value retries;
// MaxAttempts 1 makes a single-attempt client.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call, first included
	// (0 = default 5; 1 = a single try, no retries).
	MaxAttempts int
	// BaseDelay is the cap of the first backoff step (0 = 100ms); each
	// retry doubles the cap up to MaxDelay (0 = 5s), and the actual delay
	// is drawn uniformly from [0, cap) — "full jitter", so a thundering
	// herd of rejected clients decorrelates instead of re-colliding.
	BaseDelay, MaxDelay time.Duration
	// Sleep overrides the backoff wait (tests count and skip real delays);
	// nil sleeps on a timer, aborting early if ctx dies.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Client is the Go client of the daemon's API, used by cmd/loadgen and the
// in-process tests. It retries overload rejections (429/503, honoring the
// server's Retry-After hint) and transport errors (a restarting daemon)
// with capped exponential backoff and full jitter: because jobs are
// content-addressed and runs deterministic, a retried request converges to
// the byte-identical answer the first attempt would have produced.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// Retry shapes the backoff loop (zero value = defaults on).
	Retry RetryPolicy
	// Deadline, when positive, is sent as the DeadlineHeader execution
	// budget on every request.
	Deadline time.Duration

	retries, rejected atomic.Uint64
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Retries reports how many retry attempts this client has made (attempts
// beyond the first, across all calls).
func (c *Client) Retries() uint64 { return c.retries.Load() }

// Rejected reports how many overload rejections (HTTP 429/503) this client
// has observed, including ones later resolved by a retry.
func (c *Client) Rejected() uint64 { return c.rejected.Load() }

// retryable reports whether an HTTP status is worth retrying: overload and
// drain rejections are transient by construction.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// do runs one API call through the retry loop: fresh request per attempt
// (the body is re-sent from bytes), overload rejections and transport
// errors back off and retry, anything else returns immediately.
func (c *Client) do(ctx context.Context, method, path string, body []byte, want int) (data []byte, hdr http.Header, err error) {
	pol := c.Retry
	attempts := pol.MaxAttempts
	if attempts <= 0 {
		attempts = 5
	}
	base := pol.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxDelay := pol.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 5 * time.Second
	}
	sleep := pol.Sleep
	if sleep == nil {
		sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}

	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		var status int
		data, hdr, status, err = c.once(ctx, method, path, body)
		retryAfter := time.Duration(0)
		switch {
		case err != nil:
			// Transport error: the daemon may be restarting; retryable
			// unless our own context is done.
			if ctx.Err() != nil {
				return nil, nil, err
			}
			lastErr = err
		case status == want:
			return data, hdr, nil
		case retryable(status):
			c.rejected.Add(1)
			lastErr = fmt.Errorf("%s %s: HTTP %d: %s", method, path, status, strings.TrimSpace(string(data)))
			if ra, raErr := strconv.Atoi(hdr.Get("Retry-After")); raErr == nil && ra > 0 {
				retryAfter = time.Duration(ra) * time.Second
			}
		default:
			return nil, nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, status, strings.TrimSpace(string(data)))
		}
		if attempt == attempts-1 {
			break
		}
		// Capped exponential backoff with full jitter, floored at the
		// server's Retry-After hint when it gave one.
		cap := base << attempt
		if cap > maxDelay || cap <= 0 {
			cap = maxDelay
		}
		delay := time.Duration(rand.Int63n(int64(cap) + 1))
		if retryAfter > delay {
			delay = retryAfter
		}
		if err := sleep(ctx, delay); err != nil {
			return nil, nil, fmt.Errorf("%w (after %v)", err, lastErr)
		}
	}
	return nil, nil, lastErr
}

// once performs a single HTTP attempt and fully drains the response.
func (c *Client) once(ctx context.Context, method, path string, body []byte) ([]byte, http.Header, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Deadline > 0 {
		req.Header.Set(DeadlineHeader, c.Deadline.String())
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, 0, err
	}
	return data, resp.Header, resp.StatusCode, nil
}

// RunSync executes a job via POST /api/v1/run and returns the bundle bytes,
// the cache status ("miss", "hit" or "collapsed") and the spec hash.
func (c *Client) RunSync(ctx context.Context, job Job) (bundle []byte, status, hash string, err error) {
	body, err := json.Marshal(job)
	if err != nil {
		return nil, "", "", err
	}
	data, hdr, err := c.do(ctx, http.MethodPost, "/api/v1/run", body, http.StatusOK)
	if err != nil {
		return nil, "", "", err
	}
	return data, hdr.Get(CacheHeader), hdr.Get(HashHeader), nil
}

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
