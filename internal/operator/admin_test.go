package operator

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"erms/internal/obs"
)

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestAdminHandler(t *testing.T) {
	o := newTestOperator(t, testConfig())
	stepN(t, o, 2)
	h := o.AdminHandler()

	t.Run("status", func(t *testing.T) {
		w := do(t, h, http.MethodGet, "/status", "")
		if w.Code != http.StatusOK {
			t.Fatalf("GET /status = %d: %s", w.Code, w.Body)
		}
		var st Status
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Window != 2 || st.Phase != "idle" || len(st.Generations) != 1 {
			t.Fatalf("status = %+v", st)
		}
		if w := do(t, h, http.MethodPost, "/status", ""); w.Code != http.StatusMethodNotAllowed {
			t.Fatalf("POST /status = %d, want 405", w.Code)
		}
	})

	t.Run("push good spec", func(t *testing.T) {
		w := do(t, h, http.MethodPost, "/spec", goodPushYAML)
		if w.Code != http.StatusOK {
			t.Fatalf("POST /spec = %d: %s", w.Code, w.Body)
		}
		var gen Generation
		if err := json.Unmarshal(w.Body.Bytes(), &gen); err != nil {
			t.Fatal(err)
		}
		if gen.ID != 2 || gen.Status != StatusCanarying || gen.Source != "api" {
			t.Fatalf("gen = %+v, want id 2 canarying from api", gen)
		}
	})

	t.Run("push rejected spec", func(t *testing.T) {
		bad := strings.Replace(goodPushYAML, "hosts: 20", "hosts: 30", 1)
		w := do(t, h, http.MethodPost, "/spec", bad)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("POST /spec (bad) = %d: %s", w.Code, w.Body)
		}
		var resp struct {
			Error      string     `json:"error"`
			Generation Generation `json:"generation"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp.Error, "run.hosts") || resp.Generation.Status != StatusRejected {
			t.Fatalf("rejection = %+v", resp)
		}
	})

	// A pushed document names no file of its own, so it may not name one to
	// open: the refusal comes before any path is touched, whether or not
	// the path exists.
	t.Run("push app file refused", func(t *testing.T) {
		for _, path := range []string{"/nonexistent/app.json", "../../examples/specs/chaos.yaml"} {
			doc := strings.Replace(goodPushYAML, "kind: hotel", "kind: file\n  path: "+path, 1)
			w := do(t, h, http.MethodPost, "/spec", doc)
			if w.Code < 400 || w.Code >= 500 {
				t.Fatalf("POST /spec with app.path %s = %d, want 4xx: %s", path, w.Code, w.Body)
			}
			var resp struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(resp.Error, `app.kind "file" opens a path`) || strings.Contains(resp.Error, "no such file") {
				t.Fatalf("POST /spec with app.path %s: error %q, want the refusal", path, resp.Error)
			}
		}
	})

	t.Run("explain", func(t *testing.T) {
		w := do(t, h, http.MethodGet, "/explain/search", "")
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "search") {
			t.Fatalf("GET /explain/search = %d: %s", w.Code, w.Body)
		}
		if w := do(t, h, http.MethodGet, "/explain/nope", ""); w.Code != http.StatusNotFound {
			t.Fatalf("GET /explain/nope = %d, want 404", w.Code)
		}
		if w := do(t, h, http.MethodGet, "/explain/", ""); w.Code != http.StatusBadRequest {
			t.Fatalf("GET /explain/ = %d, want 400", w.Code)
		}
	})

	t.Run("oversized spec", func(t *testing.T) {
		w := do(t, h, http.MethodPost, "/spec", strings.Repeat("#", maxSpecBytes+2))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized POST /spec = %d, want 413", w.Code)
		}
	})
}

// TestCombinedHandler: one mux serves both the admin API and the
// observability endpoints, so -obs-addr is the single operational surface.
func TestCombinedHandler(t *testing.T) {
	rec := obs.New(nil)
	o, err := New(compileSpec(t, baseSpecYAML), testConfig(), rec)
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, o, 1)
	h := o.Handler(rec)

	if w := do(t, h, http.MethodGet, "/status", ""); w.Code != http.StatusOK {
		t.Fatalf("GET /status = %d", w.Code)
	}
	w := do(t, h, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "erms_self_spec_generation") {
		t.Fatalf("GET /metrics = %d, want generation gauge in body", w.Code)
	}
}

// TestStatusServesLastEightWindows: the operator remembers the statuses
// /status serves and no more, in window order across the ring's wrap.
func TestStatusServesLastEightWindows(t *testing.T) {
	o := newTestOperator(t, testConfig())
	for _, n := range []int{3, 7} { // 3 windows, then 10: before and after the wrap
		stepN(t, o, n)
		recent := o.StatusSnapshot().Recent
		want := min(nextWindow(o), recentWindows)
		if len(recent) != want {
			t.Fatalf("after %d windows: %d recent statuses, want %d", nextWindow(o), len(recent), want)
		}
		for i, st := range recent {
			if w := nextWindow(o) - want + i; st.Window != w || st.FleetReport() == nil {
				t.Fatalf("after %d windows: recent[%d] is window %d (report %v), want window %d",
					nextWindow(o), i, st.Window, st.FleetReport() != nil, w)
			}
		}
	}
}
