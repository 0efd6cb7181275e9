package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cosched/internal/service"
)

// daemonConfig is what parseFlags selects.
type daemonConfig struct {
	addr  string
	drain time.Duration
	svc   service.Config
}

// defaults is the configuration campaignd runs with when given no flags.
var defaults = daemonConfig{
	addr:  "127.0.0.1:8080",
	drain: 30 * time.Second,
	svc: service.Config{
		SpoolDir:       "spool",
		MaxAttempts:    3,
		SubmitRate:     5,
		SubmitBurst:    10,
		HeartbeatEvery: time.Second,
		DistWorkers:    3,
	},
}

// TestFlagsToConfig maps each flag onto its daemonConfig field, one at a
// time over the defaults, without starting a listener.
func TestFlagsToConfig(t *testing.T) {
	for _, tc := range []struct {
		args []string
		set  func(c *daemonConfig)
	}{
		{nil, func(*daemonConfig) {}},
		{[]string{"-addr", ":9000"}, func(c *daemonConfig) { c.addr = ":9000" }},
		{[]string{"-drain-timeout", "5s"}, func(c *daemonConfig) { c.drain = 5 * time.Second }},
		{[]string{"-spool", "/var/spool/x"}, func(c *daemonConfig) { c.svc.SpoolDir = "/var/spool/x" }},
		{[]string{"-workers", "4"}, func(c *daemonConfig) { c.svc.Workers = 4 }},
		{[]string{"-max-active", "6"}, func(c *daemonConfig) { c.svc.MaxActive = 6 }},
		{[]string{"-max-attempts", "1"}, func(c *daemonConfig) { c.svc.MaxAttempts = 1 }},
		{[]string{"-submit-rate", "0.5"}, func(c *daemonConfig) { c.svc.SubmitRate = 0.5 }},
		{[]string{"-submit-burst", "2"}, func(c *daemonConfig) { c.svc.SubmitBurst = 2 }},
		{[]string{"-heartbeat-every", "250ms"}, func(c *daemonConfig) { c.svc.HeartbeatEvery = 250 * time.Millisecond }},
		{[]string{"-workers-exec", "/bin/campaignw"}, func(c *daemonConfig) { c.svc.WorkersExec = "/bin/campaignw" }},
		{[]string{"-dist-workers", "5"}, func(c *daemonConfig) { c.svc.DistWorkers = 5 }},
		{[]string{"-lease-units", "8"}, func(c *daemonConfig) { c.svc.LeaseUnits = 8 }},
		{[]string{"-lease-ttl", "2s"}, func(c *daemonConfig) { c.svc.LeaseTTL = 2 * time.Second }},
		{[]string{"-chaos-kill-unit", "7"}, func(c *daemonConfig) { c.svc.ChaosKillUnit = 7 }},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			want := defaults
			tc.set(&want)
			var got daemonConfig
			var err error
			got.addr, got.drain, got.svc, err = parseFlags(tc.args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("config %+v, want %+v", got, want)
			}
		})
	}
}

// TestBadFlags: malformed command lines fail before the service starts,
// with the usage on stderr; -h is flag.ErrHelp, which main turns into
// exit 0.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-workers", "many"},
		{"-heartbeat-every", "5"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := realMain(args, &stdout, &stderr)
			if err == nil || errors.Is(err, flag.ErrHelp) {
				t.Fatalf("realMain(%q) = %v, want a flag error", args, err)
			}
			if stdout.Len() != 0 || !strings.Contains(stderr.String(), "Usage of campaignd") {
				t.Fatalf("stdout %q, stderr %q", stdout.String(), stderr.String())
			}
		})
	}
	if err := realMain([]string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("realMain(-h) = %v, want flag.ErrHelp", err)
	}
}

// TestUnusableSpool: a spool path that cannot be a directory fails
// service construction, so realMain returns before it listens.
func TestUnusableSpool(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-addr", "127.0.0.1:0", "-spool", filepath.Join(file, "spool"), "-workers", "1"}
	var stderr bytes.Buffer
	if err := realMain(args, io.Discard, &stderr); err == nil {
		t.Fatal("realMain with a spool under a regular file returned nil")
	}
	if strings.Contains(stderr.String(), "serving on") {
		t.Fatalf("realMain started serving: %s", stderr.String())
	}
}
