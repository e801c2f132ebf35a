package texservice

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"textjoin/internal/textidx"
)

// startServer boots a TCP server over the test index and returns its
// address plus the server for restarting/closing.
func startServer(t *testing.T, latency time.Duration) (*Server, string) {
	t.Helper()
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(local)
	srv.Logf = func(string, ...interface{}) {}
	srv.Latency = latency
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

// storm fires 64 concurrent searches through the client and returns the
// elapsed wall time. Every error fails the test.
func storm(t *testing.T, r *Remote) time.Duration {
	t.Helper()
	const goroutines = 64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	expr := textidx.Term{Field: "title", Word: "text"}
	start := time.Now()
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Search(bg, expr, FormShort)
			if err != nil {
				errs <- err
				return
			}
			if len(res.Hits) != 2 {
				errs <- errors.New("wrong hit count under concurrency")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestPoolConcurrencySpeedup is the acceptance criterion: a 64-goroutine
// Search storm against a server with per-request latency must be
// measurably faster with pool=8 than with pool=1, because the pool is
// what lets round trips overlap.
func TestPoolConcurrencySpeedup(t *testing.T) {
	const latency = 4 * time.Millisecond

	srv, addr := startServer(t, latency)
	defer srv.Close()

	pooled, err := Dial(addr, nil, WithPoolSize(8))
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	serialClient, err := Dial(addr, nil, WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer serialClient.Close()

	// Warm both pools so dialing isn't measured.
	storm(t, pooled)
	storm(t, serialClient)

	parallel := storm(t, pooled)
	serial := storm(t, serialClient)

	// 64 requests × 4ms ≈ 256ms serially vs ≈ 32ms across 8 connections.
	// Demand a conservative 2× to stay robust on loaded CI machines.
	if ratio := float64(serial) / float64(parallel); ratio < 2 {
		t.Fatalf("pool=8 not faster: serial %v, parallel %v (ratio %.2f)", serial, parallel, ratio)
	}
	if got := pooled.cfg.pool; got != 8 {
		t.Fatalf("pool size = %d", got)
	}
	if idle := pooled.IdleConns(); idle < 1 || idle > 8 {
		t.Fatalf("idle connections = %d after storm", idle)
	}
}

// TestPoolSurvivesServerRestart: connections pooled before a server
// restart are dead afterwards; behind a Retrying wrapper the client must
// discard them and re-dial transparently.
func TestPoolSurvivesServerRestart(t *testing.T) {
	srv, addr := startServer(t, 0)

	r, err := Dial(addr, nil, WithPoolSize(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	svc := NewRetrying(r, RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond})

	expr := textidx.Term{Field: "title", Word: "text"}
	// Populate the idle pool with live connections.
	storm(t, r)
	if r.IdleConns() == 0 {
		t.Fatal("no pooled connections to kill")
	}

	// Restart the server on the same address: every pooled connection dies.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(local)
	srv2.Logf = func(string, ...interface{}) {}
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	res, err := svc.Search(bg, expr, FormShort)
	if err != nil {
		t.Fatalf("search after restart: %v", err)
	}
	if len(res.Hits) != 2 {
		t.Fatalf("hits after restart = %d", len(res.Hits))
	}
}

// TestDeadlineUnhangsDeadServer: a server that accepts but never replies
// must not hang the client forever — the per-call timeout surfaces within
// tolerance as a transient (timeout) error.
func TestDeadlineUnhangsDeadServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept and go silent
		}
	}()

	const timeout = 100 * time.Millisecond
	start := time.Now()
	_, err = Dial(ln.Addr().String(), nil, WithTimeout(timeout))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial against a mute server succeeded")
	}
	if !IsTransient(err) {
		t.Fatalf("hung-connection error not transient: %v", err)
	}
	if elapsed < timeout/2 || elapsed > 20*timeout {
		t.Fatalf("timeout surfaced after %v (configured %v)", elapsed, timeout)
	}
}

// TestContextCancelUnhangsCall: cancellation (not just deadlines) must
// interrupt an in-flight read on a hung connection.
func TestContextCancelUnhangsCall(t *testing.T) {
	srv, addr := startServer(t, 0)
	defer srv.Close()
	r, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Swap the server for a mute listener on a fresh address and point a
	// fresh client at it; the in-flight call must end when ctx does.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	mute := &Remote{
		addr:  ln.Addr().String(),
		cfg:   dialConfig{pool: 1, dialTimeout: time.Second},
		meter: NewMeter(DefaultCosts()),
		slots: make(chan struct{}, 1),
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := mute.call(ctx, "info", wireRequest{Op: "info"})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call returned %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled call did not return")
	}
}

// TestDialOptionDefaults: bad option values fall back to safe defaults.
func TestDialOptionDefaults(t *testing.T) {
	cfg := dialConfig{pool: DefaultPoolSize}
	WithPoolSize(0)(&cfg)
	if cfg.pool != DefaultPoolSize {
		t.Fatalf("pool size 0 accepted: %d", cfg.pool)
	}
	WithPoolSize(-3)(&cfg)
	if cfg.pool != DefaultPoolSize {
		t.Fatalf("negative pool size accepted: %d", cfg.pool)
	}
	retry := NewRetrying(nil, RetryPolicy{}).policy
	if retry.MaxAttempts != 1 {
		t.Fatalf("zero policy attempts = %d", retry.MaxAttempts)
	}
	if retry.BaseDelay != DefaultRetryPolicy().BaseDelay {
		t.Fatalf("zero policy base delay = %v", retry.BaseDelay)
	}
}
