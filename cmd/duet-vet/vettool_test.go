package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles duet-vet into a temp dir and returns the binary path.
// Building through the real toolchain (not calling run* directly) is the
// point: the test exercises the exact -V/-flags/config handshake `go vet`
// speaks, so a protocol change in a Go release fails here instead of
// silently skipping every package.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "duet-vet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building duet-vet: %v\n%s", err, out)
	}
	return bin
}

// writeModule lays out a throwaway module named `duet` (the vettool skips
// every other module path) with a stub internal/vclock package and one
// internal/sim package. vclockpurity governs a file that imports vclock, so
// simSrc decides by its imports whether the check applies.
func writeModule(t *testing.T, simSrc string) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                    "module duet\n\ngo 1.22\n",
		"internal/vclock/vclock.go": "package vclock\n\ntype Seconds float64\n",
		"internal/sim/sim.go":       simSrc,
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func goVet(t *testing.T, dir, tool string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+tool, "./...")
	cmd.Dir = dir
	// The throwaway module must not pick up this repo's GOFLAGS/vendor
	// assumptions; everything else inherits so the toolchain caches work.
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	return buf.String(), err
}

// TestVettoolProtocol runs the real `go vet -vettool` path end to end: a
// governed package with a wall-clock read and a sleep must fail the vet
// with both diagnostics; the cleaned package must pass.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and shells out to go vet")
	}
	tool := buildTool(t)

	t.Run("dirty package fails with diagnostics", func(t *testing.T) {
		dir := writeModule(t, `package sim

import (
	"time"

	"duet/internal/vclock"
)

func Bad() vclock.Seconds {
	time.Sleep(time.Millisecond)
	return vclock.Seconds(time.Now().Unix())
}
`)
		out, err := goVet(t, dir, tool)
		if err == nil {
			t.Fatalf("go vet must fail on the governed package; output:\n%s", out)
		}
		for _, want := range []string{
			"time.Sleep in a virtual-clock-governed file",
			"time.Now in a virtual-clock-governed file",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("vet output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("clean package passes", func(t *testing.T) {
		dir := writeModule(t, `package sim

import "duet/internal/vclock"

func Fine() vclock.Seconds { return 42 }
`)
		out, err := goVet(t, dir, tool)
		if err != nil {
			t.Fatalf("go vet must pass on a clean package: %v\n%s", err, out)
		}
	})
}

// TestVettoolVersionHandshake checks the -V=full response go vet keys its
// action cache on: at least three fields with a non-devel final field.
func TestVettoolVersionHandshake(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	tool := buildTool(t)
	out, err := exec.Command(tool, "-V=full").Output()
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(strings.TrimSpace(string(out)))
	if len(fields) < 3 || strings.Contains(fields[len(fields)-1], "devel") {
		t.Fatalf("-V=full response %q does not satisfy the go vet handshake", out)
	}
}

// TestStandaloneSummary checks the -summary line make check prints: analyzer
// roster, diagnostic count, and the verify pass roster.
func TestStandaloneSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	tool := buildTool(t)
	dir := writeModule(t, `package sim

import "duet/internal/vclock"

func Fine() vclock.Seconds { return 42 }
`)
	out, err := exec.Command(tool, "-summary", dir).Output()
	if err != nil {
		t.Fatalf("summary run failed: %v\n%s", err, out)
	}
	line := strings.TrimSpace(string(out))
	for _, want := range []string{
		"6 analyzers",
		"lockorder", "chanleak", "sharednoescape",
		"0 diagnostic(s)",
		"hb-race",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("summary %q missing %q", line, want)
		}
	}
}
