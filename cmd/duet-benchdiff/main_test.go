package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"duet/internal/benchdiff"
)

// TestSmoke builds the real binary and drives the two surfaces that run no
// suite: -list prints every suite with its baseline file (exit 0), and an
// unknown -suite is a usage error (exit 2) rather than an empty diff that
// passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs it")
	}
	bin := filepath.Join(t.TempDir(), "duet-benchdiff")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building duet-benchdiff: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string, exit int) {
		t.Helper()
		var out, errOut bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &out, &errOut
		err := cmd.Run()
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			t.Fatalf("duet-benchdiff %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
		}
		return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
	}

	list, _, exit := run("-list")
	if exit != 0 {
		t.Fatalf("-list: exit %d\n%s", exit, list)
	}
	for _, s := range benchdiff.Suites() {
		if !strings.Contains(list, s.File) {
			t.Fatalf("-list does not name suite %s's baseline %s:\n%s", s.Name, s.File, list)
		}
	}
	if _, errOut, exit := run("-suite", "no-such-suite"); exit != 2 || !strings.Contains(errOut, "unknown suite") {
		t.Fatalf("-suite no-such-suite: exit %d, want 2 (unknown suite)\n%s", exit, errOut)
	}
}
