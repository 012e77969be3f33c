package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds the real binary and profiles the Siamese model with a
// handful of repetitions per device: exit 0, the header line, one table row
// per subgraph, and nothing on stderr.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs it")
	}
	bin := filepath.Join(t.TempDir(), "duet-profile")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building duet-profile: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-model", "siamese", "-runs", "5")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("duet-profile -model siamese -runs 5: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "model siamese: ") || !strings.Contains(out, "5 runs/device") {
		t.Fatalf("report lacks its header line:\n%s", out)
	}
	// One row per subgraph, each ending in the subgraph's bracketed summary.
	if rows := strings.Count(out, "]\n"); rows < 2 {
		t.Fatalf("report has %d subgraph rows, want at least 2:\n%s", rows, out)
	}
	if stderr.Len() > 0 {
		t.Fatalf("unexpected stderr:\n%s", stderr.String())
	}
}
