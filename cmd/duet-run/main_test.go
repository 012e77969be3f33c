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

// TestProfilesReuseMatchesLiveProfiling: records that duet-profile -out
// writes at seed 0 (noiseless) are the ones a live build measures, so
// duet-run -profiles reuses them and prints the live run's report byte for
// byte after its one "reusing" line: same placement, same latencies.
func TestProfilesReuseMatchesLiveProfiling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and runs them")
	}
	dir := t.TempDir()
	bin, prof := filepath.Join(dir, "duet-run"), filepath.Join(dir, "duet-profile")
	for _, b := range []struct{ out, pkg string }{{bin, "."}, {prof, "../duet-profile"}} {
		if out, err := exec.Command("go", "build", "-o", b.out, b.pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b.pkg, err, out)
		}
	}
	records := filepath.Join(dir, "siamese.json")
	if out, err := exec.Command(prof, "-model", "siamese", "-seed", "0", "-out", records).CombinedOutput(); err != nil {
		t.Fatalf("duet-profile: %v\n%s", err, out)
	}
	args := []string{"-model", "siamese", "-seed", "0", "-runs", "5"}
	live := run(t, bin, args...)
	reused := run(t, bin, append(args, "-profiles", records)...)

	first, rest, _ := strings.Cut(reused, "\n")
	if want := "reusing 3 persisted profile records from " + records; first != want {
		t.Fatalf("first line %q, want %q", first, want)
	}
	if !strings.Contains(live, "placement ") {
		t.Fatalf("live report names no placement:\n%s", live)
	}
	if rest != live {
		t.Fatalf("-profiles changed the report.\nlive:\n%s\nreused:\n%s", live, rest)
	}
}
