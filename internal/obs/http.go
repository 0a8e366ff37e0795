package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// OpsServer is the operator HTTP endpoint: /metrics (Prometheus text),
// /debug/trace (the span ring as JSON), and the standard /debug/pprof
// handlers on a private mux — deliberately not http.DefaultServeMux, so
// embedding processes cannot leak the endpoint onto other servers.
//
// Close shuts the listener down and waits for the serve goroutine and all
// in-flight handlers, so a stopped node leaks nothing (the goroutine-leak
// test in saebft pins this).
type OpsServer struct {
	ln  net.Listener
	srv *http.Server

	mu     sync.Mutex
	done   chan struct{}
	closed bool
}

// ServeOps binds addr (host:port; ":0" picks a free port) and serves the
// registry and tracer until Close. Either may be nil (the endpoint then
// serves empty output for it).
func ServeOps(addr string, reg *Registry, tr *Tracer) (*OpsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Total uint64 `json:"total"`
			Spans []Span `json:"spans"`
		}{Total: tr.Total(), Spans: tr.Dump()})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &OpsServer{
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns on Close
	}()
	return s, nil
}

// Addr returns the bound listen address.
func (s *OpsServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops listening, closes every connection, and waits for the serve
// goroutine. Idempotent; nil-safe.
func (s *OpsServer) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// Close (not Shutdown): the pprof profile handler can legitimately hold
	// a connection open for its full profiling window, and a stopping node
	// must not wait on it.
	err := s.srv.Close()
	<-s.done
	return err
}
