package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/run_all_tiny.golden from the current code")

const goldenPath = "testdata/run_all_tiny.golden"

// renderRunAll reproduces the stdout of
//
//	experiments -quick -cycles 30000 -warmup 10000 -iterations 300 -benchmarks swim,gcc -run all
//
// with the wall-clock "[<id> completed in …]" lines removed: every
// experiment's output followed by the blank line the CLI prints after its
// footer. The result is comparable with
// `grep -v "completed in"` over the CLI output.
func renderRunAll(t *testing.T) []byte {
	t.Helper()
	cfg := Quick()
	cfg.Cycles = 30_000
	cfg.Warmup = 10_000
	cfg.Iterations = 300
	cfg.Benchmarks = []string{"swim", "gcc"}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	reg := Registry()
	var buf bytes.Buffer
	for _, id := range IDs() {
		if err := reg[id](cfg, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestRunAllGolden pins the rendered output of every experiment across
// commits, not only across -parallel settings: a change that shifts any
// number, table cell or plot row fails here. After an intentional output
// change, regenerate with
//
//	go test ./internal/experiments -run TestRunAllGolden -update
//
// and explain every changed line in the change description.
func TestRunAllGolden(t *testing.T) {
	got := renderRunAll(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n  got  %q\n  want %q", i+1, g, w)
			if shown++; shown == 10 {
				break
			}
		}
	}
	t.Fatalf("output differs from %s (%d vs %d lines); regenerate with -update only after explaining every changed line", goldenPath, len(gl), len(wl))
}
