package golden

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder is a testing.TB whose cleanups run when the test says so and
// whose log lines are kept, so a test can watch a File write itself back.
type recorder struct {
	testing.TB
	cleanups []func()
	logs     []string
}

func (r *recorder) Cleanup(f func()) { r.cleanups = append(r.cleanups, f) }
func (r *recorder) Logf(format string, args ...any) {
	r.logs = append(r.logs, fmt.Sprintf(format, args...))
}
func (r *recorder) finish() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}

// setFlag sets a flag for the rest of the test.
func setFlag(t *testing.T, name, value string) {
	old := flag.Lookup(name).Value.String()
	if err := flag.Set(name, value); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set(name, old) })
}

// TestUpdateWritesCheckedKeys runs Open under -update against a table of
// three keys of which the test checks two: an unfiltered run drops the third
// and logs it, a filtered one keeps it, and an opener that only Gets leaves
// the file as it was.
func TestUpdateWritesCheckedKeys(t *testing.T) {
	setFlag(t, "update", "true")
	setFlag(t, "test.skip", "")
	recorded := map[string]string{"a": "1", "b": "2", "retired": "3"}
	for _, tc := range []struct {
		name, run string
		check     bool
		want      map[string]string
	}{
		{"unfiltered", "", true, map[string]string{"a": "1", "b": "20"}},
		{"filtered", "TestSomething", true, map[string]string{"a": "1", "b": "20", "retired": "3"}},
		{"get only", "", false, recorded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setFlag(t, "test.run", tc.run)
			path := filepath.Join(t.TempDir(), "golden.json")
			raw, _ := json.Marshal(recorded)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			r := &recorder{TB: t}
			f := Open(r, path)
			if f.Get("a") != "1" {
				t.Fatalf("Get(a) = %q", f.Get("a"))
			}
			if tc.check {
				f.Check("a", "1")
				f.Check("b", "20")
			}
			r.finish()
			var got map[string]string
			raw, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(raw, &got)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("wrote %v, want %v", got, tc.want)
			}
			for k, v := range tc.want {
				if got[k] != v {
					t.Fatalf("wrote %v, want %v", got, tc.want)
				}
			}
			dropped := len(r.logs) == 1 && strings.Contains(r.logs[0], "dropped 1 keys no test checked: retired")
			if wantDrop := len(tc.want) < len(recorded); dropped != wantDrop {
				t.Fatalf("logs %q, want a drop line: %v", r.logs, wantDrop)
			}
		})
	}
}

// errRecorder is a testing.TB that keeps its Errorf lines instead of
// failing the test.
type errRecorder struct {
	testing.TB
	errs []string
}

func (r *errRecorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// TestTextReportsEveryDifference: Text passes only a byte-identical file;
// a changed line is named, and texts that differ only in trailing newlines
// fail too.
func TestTextReportsEveryDifference(t *testing.T) {
	path := filepath.Join(t.TempDir(), "want.txt")
	if err := os.WriteFile(path, []byte("a\nb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		got, want string // want: a substring of the one error, "" for none
	}{
		{"a\nb\n", ""},
		{"a\nc\n", "line 2"},
		{"a\nb", "trailing newlines"},
		{"a\nb\n\n", "trailing newlines"},
	} {
		r := &errRecorder{TB: t}
		Text(r, path, tc.got)
		if tc.want == "" && len(r.errs) != 0 || tc.want != "" && (len(r.errs) != 1 || !strings.Contains(r.errs[0], tc.want)) {
			t.Errorf("Text(%q): errors %q, want one naming %q", tc.got, r.errs, tc.want)
		}
	}
}
