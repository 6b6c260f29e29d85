package bench

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/workload"
)

var updateTables = flag.Bool("update", false, "rewrite testdata/paper_tables.golden from the current pipeline")

const tablesPath = "testdata/paper_tables.golden"

// paperTables renders the deterministic part of spillbench's default
// output — Figure 5, Table 1 and the suite totals — for the plain run
// and the Align run. Table 2 is wall-clock and left out.
func paperTables(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, run := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"align", Options{Align: true}},
	} {
		results, err := RunEntries(specEntries(workload.SPECInt2000()), run.opts)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		b.WriteString("== " + run.name + " ==\n\n")
		b.WriteString(Figure5(results))
		b.WriteString("\n")
		b.WriteString(Table1(results))
		b.WriteString("\n")
		b.WriteString(Totals(results))
		b.WriteString("\n")
	}
	return b.String()
}

// TestPaperTablesGolden pins the paper's evaluation tables byte for
// byte. Regenerate with `go test ./internal/bench -run PaperTablesGolden
// -update` only when a change to the measured numbers is intended.
func TestPaperTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	got := paperTables(t)
	if *updateTables {
		if err := os.WriteFile(tablesPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(tablesPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("paper tables differ from %s at line %d:\n got: %s\nwant: %s", tablesPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("paper tables differ from %s in length: got %d lines, want %d", tablesPath, len(gl), len(wl))
	}
}
