package obs

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"sync"
	"time"
)

// The expvar registry is process-global and panics on duplicate names,
// so campaigns are published through one registered var holding a
// namespaced map: every live campaign appears under its own name in
// `cosched_campaigns` instead of the last Publish winning. Tests and the
// daemon run several campaigns per process; each gets its own entry and
// removes it when done.
var (
	expvarOnce sync.Once
	regMu      sync.Mutex
	registry   = map[string]*Campaign{}
)

// Publish registers c in the process-global campaign registry under
// name, visible as one entry of the `cosched_campaigns` expvar map. A
// name already in use is suffixed (#2, #3, ...) rather than overwritten.
// It returns the actual name used and a release function that removes
// the entry (idempotent); callers must release when the campaign's
// lifetime ends or the registry pins its shards forever.
func Publish(name string, c *Campaign) (string, func()) {
	expvarOnce.Do(func() {
		expvar.Publish("cosched_campaigns", expvar.Func(func() interface{} {
			regMu.Lock()
			defer regMu.Unlock()
			out := make(map[string]Snapshot, len(registry))
			for n, rc := range registry {
				out[n] = rc.Snapshot()
			}
			return out
		}))
	})
	regMu.Lock()
	defer regMu.Unlock()
	actual := name
	for i := 2; ; i++ {
		if _, taken := registry[actual]; !taken {
			break
		}
		actual = fmt.Sprintf("%s#%d", name, i)
	}
	registry[actual] = c
	released := false
	return actual, func() {
		regMu.Lock()
		defer regMu.Unlock()
		if !released {
			released = true
			delete(registry, actual)
		}
	}
}

// Handler returns the telemetry routes for one campaign:
//
//	/metrics      Prometheus text exposition
//	/progress     one Progress record as JSON (the heartbeat payload)
//	/snapshot     the full merged Snapshot as JSON
//
// The daemon mounts one of these per campaign under its own prefix;
// Serve mounts it at the root next to the debug routes.
func Handler(c *Campaign) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.WritePrometheus(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.Snapshot().Progress(time.Now()))
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.Snapshot())
	})
	return mux
}

// DebugHandler returns the process-wide debug routes (/debug/vars with
// the namespaced cosched_campaigns map, /debug/pprof/...), shared by
// Serve and the daemon.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// Server is a live observability endpoint for one campaign.
type Server struct {
	ln      net.Listener
	srv     *http.Server
	release func()

	mu       sync.Mutex
	serveErr error
}

// Serve starts an HTTP server on addr (host:port; port 0 picks a free
// one) exposing the campaign's telemetry:
//
//	/metrics      Prometheus text exposition
//	/progress     progress + ETA (JSON)
//	/snapshot     full merged snapshot (JSON)
//	/debug/vars   expvar (cosched_campaigns, cmdline, memstats)
//	/debug/pprof  live profiling (profile, heap, block, mutex, trace, ...)
//
// The campaign is published into the cosched_campaigns registry for the
// server's lifetime. The returned server runs until Shutdown or Close;
// an error from the accept loop is reported by Err.
func Serve(addr string, c *Campaign) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	_, release := Publish("campaign", c)

	routes := Handler(c)
	debug := DebugHandler()
	mux := http.NewServeMux()
	mux.Handle("/metrics", routes)
	mux.Handle("/progress", routes)
	mux.Handle("/snapshot", routes)
	mux.Handle("/debug/", debug)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("cosched campaign telemetry\n\n" +
			"  /metrics      Prometheus text\n" +
			"  /progress     progress + ETA (JSON)\n" +
			"  /snapshot     full merged snapshot (JSON)\n" +
			"  /debug/vars   expvar\n" +
			"  /debug/pprof  live profiling\n"))
	})

	s := &Server{
		ln:      ln,
		release: release,
		srv: &http.Server{
			Handler: mux,
			// A long-lived endpoint must not let one stalled client pin
			// an accept slot: bound the request-header read.
			ReadHeaderTimeout: 10 * time.Second,
		},
	}
	go func() {
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.mu.Lock()
			s.serveErr = err
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// Addr returns the server's actual listen address (resolving port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Err reports an accept-loop failure, if one happened. A cleanly shut
// down server reports nil.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serveErr
}

// Shutdown stops the server gracefully: no new connections, in-flight
// scrapes run to completion or until ctx expires. The campaign's
// registry entry is released either way.
func (s *Server) Shutdown(ctx context.Context) error {
	defer s.release()
	err := s.srv.Shutdown(ctx)
	if e := s.Err(); e != nil && err == nil {
		err = e
	}
	return err
}

// Close stops the server, giving in-flight scrapes a short grace period
// before forcing connections closed.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		return s.srv.Close()
	}
	return err
}
