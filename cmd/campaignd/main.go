// Command campaignd is the long-lived campaign daemon: an HTTP/JSON
// server multiplexing many clients' Monte-Carlo campaigns onto one
// shared, fairly-scheduled worker pool. Clients POST scenario specs,
// stream SSE progress heartbeats, and fetch JSONL results; every
// accepted campaign is spooled with an fsync'd resume manifest, so a
// restarted daemon picks up every in-flight campaign exactly where it
// stopped.
//
// Example session:
//
//	campaignd -addr :8080 -spool /var/lib/cosched/spool &
//	curl -s -XPOST -H 'X-Cosched-Client: alice' --data-binary @sweep.json \
//	    localhost:8080/v1/campaigns           # → {"id": "...", "state": "queued", ...}
//	curl -N localhost:8080/v1/campaigns/<id>/stream   # SSE heartbeats
//	curl -s localhost:8080/v1/campaigns/<id>/results  # final JSONL
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cosched/internal/service"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
		os.Exit(1)
	}
}

// parseFlags maps campaignd's command line onto the listen address, the
// drain deadline and the service configuration (without its logger).
// Usage and flag errors go to stderr.
func parseFlags(args []string, stderr io.Writer) (addr string, drain time.Duration, cfg service.Config, err error) {
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&addr, "addr", "127.0.0.1:8080", "HTTP listen address")
	fs.DurationVar(&drain, "drain-timeout", 30*time.Second, "graceful shutdown deadline for in-flight HTTP requests")
	fs.StringVar(&cfg.SpoolDir, "spool", "spool", "campaign spool directory (specs, manifests, results)")
	fs.IntVar(&cfg.Workers, "workers", 0, "shared pool width (0 = all cores)")
	fs.IntVar(&cfg.MaxActive, "max-active", 0, "concurrently executing campaigns (0 = 2x workers)")
	fs.IntVar(&cfg.MaxAttempts, "max-attempts", 3, "retries before a failing campaign is marked failed")
	fs.Float64Var(&cfg.SubmitRate, "submit-rate", 5, "per-client campaign submissions per second")
	fs.Float64Var(&cfg.SubmitBurst, "submit-burst", 10, "per-client submission burst")
	fs.DurationVar(&cfg.HeartbeatEvery, "heartbeat-every", time.Second, "SSE progress heartbeat period")
	fs.StringVar(&cfg.WorkersExec, "workers-exec", "", "worker binary (campaignw); when set, campaigns execute on spawned worker processes with lease-based fault tolerance")
	fs.IntVar(&cfg.DistWorkers, "dist-workers", 3, "worker processes per distributed campaign")
	fs.IntVar(&cfg.LeaseUnits, "lease-units", 0, "units per distributed lease (0 = default)")
	fs.DurationVar(&cfg.LeaseTTL, "lease-ttl", 0, "distributed lease time-to-live (0 = default)")
	fs.IntVar(&cfg.ChaosKillUnit, "chaos-kill-unit", 0, "testing hook: SIGKILL the worker holding this unit index once (0 = off)")
	err = fs.Parse(args)
	return addr, drain, cfg, err
}

// realMain runs the daemon until SIGINT or SIGTERM. It writes nothing to
// stdout: its log goes to stderr.
func realMain(args []string, _, stderr io.Writer) error {
	addr, drain, cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	logger := log.New(stderr, "", log.LstdFlags)
	cfg.Logf = logger.Printf
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Addr:    addr,
		Handler: srv.Handler(),
		// A daemon must not let a slow-loris client pin an accept slot.
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Printf("campaignd: serving on %s (spool %s)", addr, cfg.SpoolDir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Printf("campaignd: %v — draining", sig)
	case err := <-errc:
		srv.Stop()
		return fmt.Errorf("http server: %w", err)
	}

	// Graceful stop: first the HTTP front (no new submissions, streams
	// get their final events as campaigns cancel), then the engine
	// (in-flight units drain and are journaled; campaigns stay resumable).
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- httpSrv.Shutdown(ctx) }()
	srv.Stop()
	if err := <-shutdownErr; err != nil {
		return fmt.Errorf("draining http server: %w", err)
	}
	logger.Printf("campaignd: stopped; campaigns resumable from %s", cfg.SpoolDir)
	return nil
}
