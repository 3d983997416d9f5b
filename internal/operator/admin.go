package operator

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"erms/internal/obs"
)

// maxSpecBytes bounds an admin spec push; specs are small declarative
// documents, and an unbounded read would let one request exhaust memory.
const maxSpecBytes = 1 << 20

// Status is the admin-API view of the operator.
type Status struct {
	Window    int    `json:"window"`
	Phase     string `json:"phase"`
	Committed int    `json:"committed_generation"`
	LastGood  int    `json:"last_good_generation"`
	// Candidate is the in-flight rollout's generation, 0 when idle.
	Candidate   int            `json:"candidate_generation,omitempty"`
	Queued      []int          `json:"queued_generations,omitempty"`
	Generations []Generation   `json:"generations"`
	Recent      []WindowStatus `json:"recent_windows,omitempty"`
}

// StatusSnapshot returns the current operator status (also served as
// GET /status).
func (o *Operator) StatusSnapshot() Status {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := Status{
		Window:    o.window,
		Phase:     o.phase.String(),
		Committed: o.committed.ID,
		LastGood:  o.lastGood.ID,
	}
	if o.cand != nil {
		st.Candidate = o.cand.ID
	}
	for _, g := range o.pending {
		st.Queued = append(st.Queued, g.ID)
	}
	for _, g := range o.gens {
		st.Generations = append(st.Generations, *g)
	}
	for w := max(0, o.window-recentWindows); w < o.window; w++ {
		st.Recent = append(st.Recent, o.recent[w%recentWindows])
	}
	return st
}

// Explain renders the scaling explanation for one service under the
// committed generation's current offered load (also served as
// GET /explain/{service}).
func (o *Operator) Explain(service string) (string, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	w := o.window
	if w > 0 {
		w--
	}
	return o.fleet.Explain(service, o.fleetRates(w))
}

// AdminHandler serves the operator's admin API:
//
//	GET  /status             rollout state machine + generation history
//	POST /spec               push a spec document (YAML or JSON body)
//	GET  /explain/{service}  scaling explanation under current load
func (o *Operator) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, o.StatusSnapshot())
	})
	mux.HandleFunc("/spec", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "method not allowed (POST a spec document)", http.StatusMethodNotAllowed)
			return
		}
		data, err := io.ReadAll(io.LimitReader(req.Body, maxSpecBytes+1))
		if err != nil {
			http.Error(w, fmt.Sprintf("read body: %v", err), http.StatusBadRequest)
			return
		}
		if len(data) > maxSpecBytes {
			http.Error(w, "spec document too large", http.StatusRequestEntityTooLarge)
			return
		}
		gen, err := o.Push(data, "api")
		if err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"error":      err.Error(),
				"generation": gen,
			})
			return
		}
		writeJSON(w, gen)
	})
	mux.HandleFunc("/explain/", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		service := strings.TrimPrefix(req.URL.Path, "/explain/")
		if service == "" || strings.Contains(service, "/") {
			http.Error(w, "usage: GET /explain/{service}", http.StatusBadRequest)
			return
		}
		out, err := o.Explain(service)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, out)
	})
	return mux
}

// Handler mounts the admin API next to the observability endpoints on one
// mux, so `-obs-addr` serves both surfaces: /metrics, /spans, /debug/pprof
// from the recorder; /status, /spec, /explain from the operator.
func (o *Operator) Handler(rec *obs.Recorder) http.Handler {
	admin := o.AdminHandler()
	obsH := rec.Handler()
	mux := http.NewServeMux()
	mux.Handle("/status", admin)
	mux.Handle("/spec", admin)
	mux.Handle("/explain/", admin)
	mux.Handle("/", obsH)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
