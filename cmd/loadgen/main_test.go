package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	"baryon/internal/config"
	"baryon/internal/service"
)

func testDaemon(t *testing.T) (*service.Service, string) {
	t.Helper()
	cfg := config.Scaled()
	cfg.AccessesPerCore = 1000
	s, err := service.New(service.Options{BaseConfig: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandlerOpts(s, service.HandlerOptions{RunCtx: context.Background()}))
	t.Cleanup(srv.Close)
	return s, srv.URL
}

var reportRe = regexp.MustCompile(`requests=(\d+) errors=(\d+) hits=(\d+) collapsed=(\d+) misses=(\d+) hitRate=([\d.]+)`)

// TestLoadgenAgainstService runs the harness against an in-process daemon
// and checks the report: no errors, the repeated jobs were served without
// re-simulating, and byte verification passes.
func TestLoadgenAgainstService(t *testing.T) {
	s, url := testDaemon(t)
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{
		"-addr", url, "-clients", "3", "-requests", "24", "-seeds", "2",
		"-accesses", "1000", "-verify-bytes", "-min-hit-rate", "0.5",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	m := reportRe.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no report line in output: %s", out.String())
	}
	requests, _ := strconv.Atoi(m[1])
	errors, _ := strconv.Atoi(m[2])
	misses, _ := strconv.Atoi(m[3+2])
	if requests != 24 || errors != 0 {
		t.Fatalf("report %q: want 24 requests, 0 errors", m[0])
	}
	// 24 requests over a 2-job mix cost at most 2 simulations; everything
	// else must be a hit or collapse.
	if sims := s.Simulations(); sims > 2 {
		t.Fatalf("%d simulations for a 2-job mix", sims)
	}
	if misses > 2 {
		t.Fatalf("%d misses for a 2-job mix", misses)
	}
	if !bytes.Contains(out.Bytes(), []byte("latency_us:")) {
		t.Fatalf("no latency summary in output: %s", out.String())
	}
}

// TestLoadgenHitRateGate checks -min-hit-rate fails a cold single request
// (hit rate 0) with a diagnostic.
func TestLoadgenHitRateGate(t *testing.T) {
	_, url := testDaemon(t)
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{
		"-addr", url, "-clients", "1", "-requests", "1", "-seeds", "1",
		"-accesses", "1000", "-min-hit-rate", "0.5",
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !bytes.Contains(errb.Bytes(), []byte("hit rate")) {
		t.Fatalf("no hit-rate diagnostic: %s", errb.String())
	}
}

// TestLoadgenBadFlags pins the usage-error paths.
func TestLoadgenBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-clients", "2"}, &out, &errb); code != 2 {
		t.Fatalf("missing -addr: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-addr", "http://x", "-requests", "0"}, &out, &errb); code != 2 {
		t.Fatalf("zero requests: exit %d, want 2", code)
	}
}
