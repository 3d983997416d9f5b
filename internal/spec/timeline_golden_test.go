package spec

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// checkGolden compares got with testdata/<name>.golden byte for byte.
// `go test ./internal/spec -run Golden -update` rewrites the files — only for
// an intended behaviour change.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from %s:\n--- got ---\n%s\n--- want ---\n%s", name, path, got, want)
	}
}

// TestExampleTimelinesGolden pins the timeline CSV of the three chaos-free
// example specs to files captured before batch runs moved onto
// core.Reconciler.Step (PR 16): whatever drives the windows, the shipped
// scenarios must produce these bytes. Spec time is compressed with
// time_scale, as figSpec's quick mode does.
func TestExampleTimelinesGolden(t *testing.T) {
	for _, c := range []struct {
		name, path string
		timeScale  float64
	}{
		{"quickstart", "../../examples/quickstart/quickstart.yaml", 3},
		{"flashcrowd", "../../examples/specs/flashcrowd.yaml", 3},
		{"failover", "../../examples/specs/failover.yaml", 2},
	} {
		s, err := ParseFile(filepath.FromSlash(c.path))
		if err != nil {
			t.Fatal(err)
		}
		s.TimeScale = c.timeScale
		sc, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sc.Run(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var buf bytes.Buffer
		if err := res.WriteTimelineCSV(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, c.name+"_timeline", buf.Bytes())
	}
}
