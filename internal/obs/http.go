package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"erms/internal/sortutil"
)

// Handler serves the recorder over HTTP:
//
//	/metrics      Prometheus text format: every counter/gauge of the
//	              recorder, one line each.
//	/spans        JSON dump of the retained internal spans.
//	/debug/pprof  the standard net/http/pprof profiles.
//
// The handler is read-only and safe to serve while the control loop runs.
func (r *Recorder) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", r.serveMetrics)
	mux.HandleFunc("/spans", r.serveSpans)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "erms self-observability\n\n/metrics\n/spans\n/debug/pprof/\n")
	})
	return mux
}

// Server wraps http.Server for the observability and admin endpoints with
// two properties bare http.ListenAndServe lacks:
//
//   - Listen binds synchronously, so a port conflict is an error the caller
//     sees at startup instead of a silent death inside a goroutine;
//   - Shutdown drains in-flight scrapes (Prometheus pulls, span dumps,
//     admin requests) before returning, so SIGTERM does not drop responses
//     mid-body.
//
// A ReadHeaderTimeout guards the listener against slow-header clients
// holding connections open indefinitely.
type Server struct {
	httpServer *http.Server
	addr       string
	ln         net.Listener
}

// NewServer builds an unstarted server for addr and handler.
func NewServer(addr string, h http.Handler) *Server {
	return &Server{
		addr: addr,
		httpServer: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
		},
	}
}

// Listen binds the address. It must be called before Serve; the error (port
// already bound, bad address) is returned synchronously.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return fmt.Errorf("obs: listen %s: %w", s.addr, err)
	}
	s.ln = ln
	return nil
}

// Addr returns the bound address (useful with ":0"), or the configured
// address before Listen.
func (s *Server) Addr() string {
	if s.ln != nil {
		return s.ln.Addr().String()
	}
	return s.addr
}

// Serve blocks serving the bound listener. After Shutdown it returns nil
// (http.ErrServerClosed is the orderly exit, not an error).
func (s *Server) Serve() error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	err := s.httpServer.Serve(s.ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown stops accepting new connections and waits for in-flight requests
// to complete, up to the context deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.httpServer.Shutdown(ctx)
}

func (r *Recorder) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var sb strings.Builder
	counters := r.Counters()
	for _, name := range sortutil.Keys(counters) {
		fmt.Fprintf(&sb, "%s %g\n", PromName(name), counters[name])
	}
	fmt.Fprint(w, sb.String())
}

func (r *Recorder) serveSpans(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	payload := struct {
		Spans   []SpanRecord `json:"spans"`
		Dropped int          `json:"dropped"`
	}{Spans: r.Spans(), Dropped: r.DroppedSpans()}
	if payload.Spans == nil {
		payload.Spans = []SpanRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(payload)
}

// PromName converts a recorder counter name into a valid Prometheus metric
// name: every character outside [a-zA-Z0-9_:] is replaced by '_', and a
// leading digit gets a '_' prefix.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
