package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	apiv1 "snooze/api/v1"
	"snooze/api/v1/client"
)

// TestFleetStopLeavesNoProcess spawns stand-in processes through the same
// code path as deploy-rest and checks that stop ends every one of them.
func TestFleetStopLeavesNoProcess(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "fake-snoozed")
	// Ignores SIGTERM (the disposition survives exec), so stop must fall
	// back to SIGKILL.
	if err := os.WriteFile(bin, []byte("#!/bin/sh\ntrap '' TERM\nexec sleep 60\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := startFleet(bin, filepath.Join(dir, "fleet"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.procs) != deployNodes+1 {
		t.Fatalf("spawned %d processes, want %d", len(f.procs), deployNodes+1)
	}
	start := time.Now()
	f.stop()
	f.stop() // idempotent
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("stop took %v", d)
	}
	for _, p := range f.procs {
		if err := syscall.Kill(p.cmd.Process.Pid, 0); err == nil {
			t.Errorf("%s (pid %d) still running", p.name, p.cmd.Process.Pid)
		}
	}
}

// TestRungTimesFromDueTime drives one open-loop rung against a stub /v1
// server whose replies take 5ms: every submission is answered, and every
// latency, measured from the due time, covers at least the service time.
func TestRungTimesFromDueTime(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req apiv1.SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		time.Sleep(5 * time.Millisecond)
		res := apiv1.SubmitResult{Placed: map[string]string{}}
		for _, vm := range req.VMs {
			res.Placed[vm.ID] = "n1"
		}
		_ = json.NewEncoder(w).Encode(res)
	}))
	defer srv.Close()
	next := 0
	out := rung(context.Background(), client.New(srv.URL), rand.New(rand.NewSource(1)), 100, 500*time.Millisecond, &next, 2)
	if len(out) != next || len(out) < 20 {
		t.Fatalf("%d outcomes for %d due submissions", len(out), next)
	}
	for _, o := range out {
		if o.err != nil || !o.placed {
			t.Fatalf("submission %s: placed=%v err=%v", o.id, o.placed, o.err)
		}
		if o.latency < 5*time.Millisecond || o.latency < o.late {
			t.Fatalf("submission %s: latency %v, late %v", o.id, o.latency, o.late)
		}
	}
}

func TestScrapeCounter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "# TYPE snooze_gm_lc_failures_total counter")
		fmt.Fprintln(w, "snooze_gm_lc_failures_total 3")
	}))
	defer srv.Close()
	for name, want := range map[string]float64{"gm.lc-failures": 3, "gm.place-ok": 0} {
		got, err := scrapeCounter(context.Background(), srv.URL, name)
		if err != nil || got != want {
			t.Errorf("%s = %v (%v), want %v", name, got, err, want)
		}
	}
}
