package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// checkGolden compares a figure's rendered quick-mode tables with
// testdata/<id>.golden byte for byte. The files were captured before the
// window loop, the simulator entry and the experiment testbed were unified,
// and pin those refactors as pure: `go test ./internal/experiments -run
// TestFigures/<id> -update` rewrites one — only for an intended behaviour
// change — after logging what changes, in tableDelta's form.
func checkGolden(t *testing.T, id string, tables []*Table, got string) {
	t.Helper()
	path := filepath.Join("testdata", id+".golden")
	want, err := os.ReadFile(path)
	if *updateGolden {
		if err == nil && string(want) != got {
			t.Logf("rewriting %s:\n%s", path, tableDelta(readTables(string(want)), tables))
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s:\n%s", id, path, tableDelta(readTables(string(want)), tables))
	}
}

// tableDelta lists how two renders of a figure differ: each differing
// numeric cell as `table/row/column: old → new (±x.x %)`, and every other
// changed line — a title, header, row or note — whole, old above new.
func tableDelta(old, cur []*Table) string {
	var sb strings.Builder
	line := func(sign string, cols []string) { fmt.Fprintf(&sb, "%s %s\n", sign, strings.Join(cols, "  ")) }
	changed := func(o, c []string) {
		if strings.Join(o, "\x00") != strings.Join(c, "\x00") {
			line("-", o)
			line("+", c)
		}
	}
	for i := 0; i < len(old) || i < len(cur); i++ {
		if i >= len(cur) {
			fmt.Fprintf(&sb, "- table %s: %s\n", old[i].ID, old[i].Title)
			continue
		}
		if i >= len(old) {
			fmt.Fprintf(&sb, "+ table %s: %s\n", cur[i].ID, cur[i].Title)
			continue
		}
		o, c := old[i], cur[i]
		changed([]string{o.ID + ": " + o.Title}, []string{c.ID + ": " + c.Title})
		changed(o.Header, c.Header)
		for r := 0; r < len(o.Rows) || r < len(c.Rows); r++ {
			switch {
			case r >= len(c.Rows):
				line("-", o.Rows[r])
			case r >= len(o.Rows):
				line("+", c.Rows[r])
			default:
				if cells := numericDelta(c, o.Rows[r], c.Rows[r]); cells != nil {
					sb.WriteString(strings.Join(cells, ""))
				} else {
					changed(o.Rows[r], c.Rows[r])
				}
			}
		}
		for n := 0; n < len(o.Notes) || n < len(c.Notes); n++ {
			switch {
			case n >= len(c.Notes):
				line("- note:", []string{o.Notes[n]})
			case n >= len(o.Notes):
				line("+ note:", []string{c.Notes[n]})
			default:
				changed([]string{"note: " + o.Notes[n]}, []string{"note: " + c.Notes[n]})
			}
		}
	}
	if sb.Len() == 0 {
		return "(the tables are equal; the renders differ in layout only)"
	}
	return sb.String()
}

// numericDelta describes two differing rows of table tab cell by cell, or
// returns nil when they differ in anything but numbers.
func numericDelta(tab *Table, old, cur []string) []string {
	if len(old) != len(cur) || len(cur) > len(tab.Header) {
		return nil
	}
	var out []string
	for i := range cur {
		if old[i] == cur[i] {
			continue
		}
		o, ok1 := cellValue(old[i])
		c, ok2 := cellValue(cur[i])
		if !ok1 || !ok2 {
			return nil
		}
		rel := "from 0"
		if o != 0 {
			rel = fmt.Sprintf("%+.1f %%", 100*(c-o)/o)
		}
		out = append(out, fmt.Sprintf("%s/%s/%s: %s → %s (%s)\n", tab.ID, cur[0], tab.Header[i], old[i], cur[i], rel))
	}
	return out
}

// readTables parses text written by Table.Fprint back into tables. Fprint
// left-aligns every column to one width, two spaces apart, so each row is
// cut where its header's cells start (a header cell never holds two
// spaces); offsets count runes, as the padding does.
func readTables(text string) []*Table {
	var tabs []*Table
	var tab *Table
	var starts []int
	for _, l := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(l, "== ") && strings.HasSuffix(l, " =="):
			id, title, _ := strings.Cut(strings.TrimSuffix(strings.TrimPrefix(l, "== "), " =="), ": ")
			tab = &Table{ID: id, Title: title}
			tabs = append(tabs, tab)
			starts = nil
		case tab == nil || l == "":
			tab = nil
		case strings.HasPrefix(l, "  note: "):
			tab.Notes = append(tab.Notes, strings.TrimPrefix(l, "  note: "))
		case starts == nil:
			r := []rune(l)
			for i := 2; i < len(r); i++ {
				if r[i] != ' ' && (i == 2 || r[i-1] == ' ' && r[i-2] == ' ') {
					starts = append(starts, i)
				}
			}
			tab.Header = cut(r, starts)
		default:
			tab.Rows = append(tab.Rows, cut([]rune(l), starts))
		}
	}
	return tabs
}

// cut splits a rendered line at the given rune offsets and trims each cell.
func cut(r []rune, starts []int) []string {
	cells := make([]string, len(starts))
	for i, s := range starts {
		end := len(r)
		if i+1 < len(starts) && starts[i+1] < end {
			end = starts[i+1]
		}
		if s < end {
			cells[i] = strings.TrimSpace(string(r[s:end]))
		}
	}
	return cells
}
