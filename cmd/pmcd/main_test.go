package main

import (
	"context"
	"net"
	"testing"
	"time"

	"pmc"
)

// TestServeOutlastsTimeouts: a job that runs many times longer than every
// connection timeout of pmcd serve's HTTP server still delivers its
// ?wait=1 result and its full event stream. The timeouts are scaled down
// to 50 ms so a fuzz job of a few hundred milliseconds outlasts them.
func TestServeOutlastsTimeouts(t *testing.T) {
	const timeout = 50 * time.Millisecond
	srv, err := pmc.NewPmcdServer(pmc.PmcdConfig{Workers: 2, CodeVersion: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(ln.Addr().String(), srv.Handler(), timeout, timeout)
	go hs.Serve(ln)
	defer hs.Close()
	client := pmc.NewPmcdClient("http://" + ln.Addr().String())
	ctx := context.Background()

	submit := func(seed int64) *pmc.PmcdJobStatus {
		t.Helper()
		st, err := client.Submit(ctx, pmc.PmcdJobSpec{Fuzz: &pmc.PmcdFuzzJob{Seed: seed, N: 60}})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	waited, streamed := submit(1), submit(2)
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		last, err := client.Events(ctx, streamed.ID, nil)
		if err == nil && last.State != "done" {
			t.Errorf("event stream ended in state %q", last.State)
		}
		done <- err
	}()
	body, err := client.Result(ctx, waited.ID, true)
	if err != nil {
		t.Fatalf("?wait=1 result: %v", err)
	}
	if len(body) == 0 {
		t.Error("?wait=1 result is empty")
	}
	if err := <-done; err != nil {
		t.Errorf("event stream: %v", err)
	}
	if d := time.Since(start); d < 4*timeout {
		t.Fatalf("jobs finished in %v, too soon to outlast the %v timeouts", d, timeout)
	}
}
