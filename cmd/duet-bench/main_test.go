package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds the real binary and drives its cheapest surfaces: -list
// names the experiments, one quick experiment exits 0 with a table, -obs
// writes the observability report as plain JSON (no run-history section),
// and -compare — removed in favour of bench/run.sh --compare — is refused
// as an unknown flag (exit 2) rather than silently ignored.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs it")
	}
	bin := filepath.Join(t.TempDir(), "duet-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building duet-bench: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout string, exit int) {
		t.Helper()
		var out, errOut bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &out, &errOut
		err := cmd.Run()
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			t.Fatalf("duet-bench %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
		}
		return out.String(), cmd.ProcessState.ExitCode()
	}

	list, exit := run("-list")
	if exit != 0 || !strings.Contains(list, "fig5") || !strings.Contains(list, "fig11") {
		t.Fatalf("-list: exit %d\n%s", exit, list)
	}
	table, exit := run("-quick", "-exp", "fig5")
	if exit != 0 || !strings.Contains(table, "=== fig5") || strings.Count(table, "\n") < 4 {
		t.Fatalf("-quick -exp fig5: exit %d\n%s", exit, table)
	}
	obsPath := filepath.Join(t.TempDir(), "o.json")
	if _, exit := run("-quick", "-obs", obsPath); exit != 0 {
		t.Fatalf("-quick -obs: exit %d", exit)
	}
	raw, err := os.ReadFile(obsPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-obs wrote invalid JSON: %v\n%.200s", err, raw)
	}
	if _, ok := doc["metrics"]; !ok {
		t.Errorf("-obs report has no metrics: %.200s", raw)
	}
	if _, ok := doc["history"]; ok {
		t.Errorf("-obs report carries a history section")
	}
	if _, exit := run("-compare", "x"); exit != 2 {
		t.Fatalf("-compare x: exit %d, want 2 (unknown flag)", exit)
	}
}
