package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// run executes the built binary and returns its standard output; any
// non-zero exit fails the test with everything the process printed.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("duet-run %s: %v\n%s%s", strings.Join(args, " "), err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// TestSmokeParallelMatchesSerial builds the real binary and runs the reduced
// Siamese model twice — the serial Infer path and -parallel (InferParallel,
// per-device workers) — and requires exit 0 and byte-identical reports: same
// placement, same latency statistics, same inference latency and the same
// output values, since neither the virtual timeline nor the tensor math may
// depend on which executor ran them.
func TestSmokeParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs it")
	}
	bin := filepath.Join(t.TempDir(), "duet-run")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building duet-run: %v\n%s", err, out)
	}
	args := []string{"-small", "-model", "siamese", "-runs", "5"}
	serial := run(t, bin, args...)
	parallel := run(t, bin, append(args, "-parallel")...)

	for _, want := range []string{"placement decisions", "latency over 5 runs", "real inference: latency", "out[0]"} {
		if !strings.Contains(serial, want) {
			t.Fatalf("report lacks %q:\n%s", want, serial)
		}
	}
	if serial != parallel {
		t.Fatalf("-parallel changed the report.\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}
