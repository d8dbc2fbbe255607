package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analyze"
	"repro/internal/obs"
)

// The checked-in mini trace is 4 rigs of `babolbench -ops 16 split`
// merged in configuration order (regenerate with
// `go run ./cmd/babolbench -ops 16 -parallel 1 -trace cmd/babolbench/testdata/mini.jsonl split`,
// then refresh the goldens from `babolbench analyze` / `-csv analyze`).
// CI runs the same comparison against the built binary; this test keeps
// `go test` self-sufficient.
func readMini(t *testing.T) []obs.Event {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "mini.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The tenant mini trace is the workload sweep — four solo runs plus the
// contended run — with host-command events merged in (regenerate with
// `go run ./cmd/babolbench -ops 8 -parallel 1 -trace cmd/babolbench/testdata/mini_tenants.jsonl workload`,
// then refresh the goldens from `babolbench analyze` / `-csv analyze`).
// CI golden-diffs the analyze output of the built binary against the
// same files.
func TestAnalyzeMiniTenantTraceGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "mini_tenants.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	res := analyze.Analyze(events)
	if len(res.Runs) != 5 {
		t.Fatalf("runs = %d, want 5 (4 solo + contended)", len(res.Runs))
	}
	for i, run := range res.Runs {
		if run.Tenants == nil {
			t.Fatalf("run %d has no tenant report", i)
		}
	}
	if got := len(res.Runs[4].Tenants.Rows); got != 4 {
		t.Fatalf("contended run has %d tenant rows, want 4", got)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("protocol violations in the golden trace: %v", res.Violations)
	}
	if got, want := res.Render(), golden(t, "mini_tenants.report.golden"); got != want {
		t.Errorf("report drifted from golden\n got:\n%s\nwant:\n%s", got, want)
	}
	if got, want := res.CSV(), golden(t, "mini_tenants.csv.golden"); got != want {
		t.Errorf("CSV drifted from golden\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestAnalyzeMiniTraceGolden(t *testing.T) {
	res := analyze.Analyze(readMini(t))
	if len(res.Runs) != 4 {
		t.Fatalf("runs = %d, want 4 (2 controllers x 2 clocks)", len(res.Runs))
	}
	if len(res.Violations) != 0 {
		t.Fatalf("protocol violations in the golden trace: %v", res.Violations)
	}
	if got, want := res.Render(), golden(t, "mini.report.golden"); got != want {
		t.Errorf("report drifted from golden\n got:\n%s\nwant:\n%s", got, want)
	}
	if got, want := res.CSV(), golden(t, "mini.csv.golden"); got != want {
		t.Errorf("CSV drifted from golden\n got:\n%s\nwant:\n%s", got, want)
	}
}
