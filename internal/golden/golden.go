// Package golden is the test support behind the repo's recorded-value
// tables: a flat key → string JSON file that a test either compares against
// or, under -update, rewrites. Floats are stored as hex so a recorded
// virtual-clock number round-trips bit for bit.
package golden

import (
	"encoding/json"
	"flag"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the current code instead of comparing against them")

// File is one golden table bound to the test that opened it.
type File struct {
	t       testing.TB
	vals    map[string]string
	checked map[string]bool // keys Check saw, under -update
}

// Open loads the table at path. Under -update a missing file starts empty
// and, if the test Checked any key, the table is written back when the test
// ends; a test that only Gets writes nothing. When the whole test binary ran
// (no -run or -skip filter) and the test passed, only the keys it Checked
// are written back, so a retired key leaves the file; the dropped keys are
// logged (go test -v shows them). A filtered run keeps every recorded key,
// since the tests it skipped would have checked some of them.
func Open(t testing.TB, path string) *File {
	t.Helper()
	f := &File{t: t, vals: map[string]string{}, checked: map[string]bool{}}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &f.vals); err != nil {
			t.Fatalf("golden: %s: %v", path, err)
		}
	case !*update || !os.IsNotExist(err):
		t.Fatalf("golden: %v (record it with -update)", err)
	}
	if *update {
		t.Cleanup(func() { f.write(path) })
	}
	return f
}

// write records the table at path, as Open describes.
func (f *File) write(path string) {
	if len(f.checked) == 0 {
		return
	}
	if !filtered() && !f.t.Failed() {
		var dropped []string
		for k := range f.vals {
			if !f.checked[k] {
				dropped = append(dropped, k)
				delete(f.vals, k)
			}
		}
		if len(dropped) > 0 {
			sort.Strings(dropped)
			f.t.Logf("golden: %s: dropped %d keys no test checked: %s", path, len(dropped), strings.Join(dropped, ", "))
		}
	}
	out, err := json.MarshalIndent(f.vals, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(out, '\n'), 0o644)
	}
	if err != nil {
		f.t.Errorf("golden: writing %s: %v", path, err)
	}
}

// filtered reports whether the test binary runs a subset of its tests.
func filtered() bool {
	for _, name := range []string{"test.run", "test.skip"} {
		if fl := flag.Lookup(name); fl != nil && fl.Value.String() != "" {
			return true
		}
	}
	return false
}

// Get returns the recorded value of key, failing the test when it is absent.
func (f *File) Get(key string) string {
	f.t.Helper()
	v, ok := f.vals[key]
	if !ok {
		f.t.Fatalf("golden: no recorded value for %q", key)
	}
	return v
}

// Check compares got with the recorded value of key (recording it instead
// under -update).
func (f *File) Check(key, got string) {
	f.t.Helper()
	if *update {
		f.vals[key] = got
		f.checked[key] = true
		return
	}
	if want := f.Get(key); got != want {
		f.t.Errorf("golden %s:\n got  %s\n want %s", key, got, want)
	}
}

// Text compares got with the whole text file at path and names the first
// line that differs. Under -update it writes got to path instead, once the
// test has ended, if the run was unfiltered and the test passed (the rule
// Open applies to dropped keys).
func Text(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		t.Cleanup(func() {
			if filtered() || t.Failed() {
				t.Logf("golden: %s not rewritten: a filtered or failing run", path)
				return
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Errorf("golden: writing %s: %v", path, err)
			}
		})
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (record it with -update)", err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range max(len(gl), len(wl)) {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("golden %s line %d:\n got  %s\n want %s", path, i+1, g, w)
				return
			}
		}
		t.Errorf("golden %s: differs only in trailing newlines (%d lines got, %d want)", path, len(gl), len(wl))
	}
}

// Floats renders values as space-separated hex floats.
func Floats(vs ...float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'x', -1, 64)
	}
	return strings.Join(parts, " ")
}
