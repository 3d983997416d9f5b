package spec

import (
	"os"
	"testing"
)

// FuzzParse feeds arbitrary documents to the spec parser: whatever the
// input, Parse must return a spec or an error — never panic — and a spec it
// accepts must be internally valid (finite numbers, known fields, ranges).
func FuzzParse(f *testing.F) {
	f.Add([]byte(minimalYAML))
	f.Add([]byte(minimalJSON))
	for _, path := range []string{
		"../../examples/quickstart/quickstart.yaml",
		"../../examples/specs/flashcrowd.yaml",
		"../../examples/specs/failover.yaml",
		"../../examples/specs/chaos.yaml",
		"../../examples/specs/drift.yaml",
	} {
		if data, err := os.ReadFile(path); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(operatorYAML))
	f.Add([]byte("chaos:\n  p_host_fail: 1e-309\n  op_failures: -1\n"))
	f.Add([]byte("drift:\n  threshold: .inf\n"))
	f.Add([]byte("app:\n  kind: hotel\n  slas:\n    search: -0\n"))
	f.Add([]byte("version: 1\nseed: 99999999999999999999999\n"))
	f.Add([]byte("a:\n\tb: 1"))
	f.Add([]byte("a: &anchor 1"))
	f.Add([]byte("a: [1, [2, '3,4'], \"5\"]"))
	f.Add([]byte("- - - -"))
	f.Add([]byte(`{"version": 1e309}`))
	f.Add([]byte(`{"cohorts": [{"arrival": {"rate": "NaN"}}]}`))
	f.Add([]byte("cohorts:\n- arrival:\n    rates: [1e999]\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// Parse validates internally; a second Validate must agree.
		if verr := s.Validate(); verr != nil {
			t.Fatalf("Parse accepted a spec Validate rejects: %v", verr)
		}
	})
}
