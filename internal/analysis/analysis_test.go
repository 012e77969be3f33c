package analysis

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// runOn writes each named source into a temp dir and runs the given analyzers
// over the resulting single package, returning the diagnostics.
func runOn(t *testing.T, analyzers []*Analyzer, sources map[string]string) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names) // map order is random; analyzers see files in list order
	var files []string
	for _, name := range names {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(sources[name]), 0o666); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	diags, err := RunFiles(analyzers, "test/pkg", files)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// wantDiags asserts that the diagnostics contain exactly the expected
// substrings, one per finding, in order.
func wantDiags(t *testing.T, diags []Diagnostic, substrings ...string) {
	t.Helper()
	if len(diags) != len(substrings) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(substrings), diags)
	}
	for i, want := range substrings {
		if !strings.Contains(diags[i].String(), want) {
			t.Errorf("diag %d = %q, want substring %q", i, diags[i], want)
		}
	}
}

func TestVClockPurity(t *testing.T) {
	suite := []*Analyzer{VClockPurity()}

	t.Run("flags wall clock and global rand in governed files", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import (
	"math/rand"
	"time"

	"duet/internal/vclock"
)

var _ vclock.Seconds

func bad() {
	_ = time.Now()
	_ = time.Since(time.Time{})
	_ = rand.Intn(3)
}
`})
		wantDiags(t, diags,
			"time.Now in a virtual-clock-governed file",
			"time.Since in a virtual-clock-governed file",
			"global rand.Intn in a virtual-clock-governed file",
		)
	})

	t.Run("flags sleeps and timers in governed files", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import (
	"time"

	"duet/internal/vclock"
)

var _ vclock.Seconds

func bad() {
	time.Sleep(time.Second)
	<-time.After(time.Second)
	_ = time.Tick(time.Second)
	_ = time.NewTimer(time.Second)
	_ = time.NewTicker(time.Second)
}
`})
		wantDiags(t, diags,
			"time.Sleep in a virtual-clock-governed file",
			"time.After in a virtual-clock-governed file",
			"time.Tick in a virtual-clock-governed file",
			"time.NewTimer in a virtual-clock-governed file",
			"time.NewTicker in a virtual-clock-governed file",
		)
	})

	t.Run("ungoverned files may sleep", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "time"

func ok() { time.Sleep(time.Millisecond) }
`})
		wantDiags(t, diags)
	})

	t.Run("allows seeded generators and aliased imports", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import (
	mrand "math/rand"
	wall "time"

	"duet/internal/vclock"
)

var _ vclock.Seconds

func worse() {
	r := mrand.New(mrand.NewSource(1))
	_ = r.Intn(3)
	_ = wall.Now()
	_ = mrand.Float64()
}
`})
		wantDiags(t, diags,
			"wall.Now in a virtual-clock-governed file",
			"global mrand.Float64 in a virtual-clock-governed file",
		)
	})

	t.Run("ungoverned files may use the wall clock", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "time"

func ok() { _ = time.Now() }
`})
		wantDiags(t, diags)
	})
}

func TestArenaInto(t *testing.T) {
	suite := []*Analyzer{ArenaInto()}

	t.Run("flags fresh allocation in arena-threaded kernels", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "duet/internal/tensor"

func MatMulInto(dst *tensor.Tensor, ar *tensor.Arena) {
	_ = make([]float32, 8)
	_ = tensor.New(2, 2)
	_ = &tensor.Tensor{}
}
`})
		wantDiags(t, diags,
			"MatMulInto allocates with make",
			"MatMulInto calls tensor.New",
			"MatMulInto builds a Tensor literal",
		)
	})

	t.Run("flags bare constructors inside package tensor", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package tensor

type Arena struct{}
type Tensor struct{}

func New(dims ...int) *Tensor { return nil }

func AddInto(dst *Tensor, ar *Arena) {
	_ = New(2, 2)
}
`})
		wantDiags(t, diags, "AddInto calls New")
	})

	t.Run("ignores kernels without an arena parameter", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "duet/internal/tensor"

func CopyInto(dst *tensor.Tensor) *tensor.Tensor {
	_ = make([]float32, 8)
	return tensor.New(2, 2)
}

func Fresh(ar *tensor.Arena) *tensor.Tensor {
	return tensor.New(2, 2)
}
`})
		wantDiags(t, diags)
	})
}

func TestObsNames(t *testing.T) {
	suite := []*Analyzer{ObsNames()}

	t.Run("flags convention violations", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "duet/internal/obs"

func register(reg *obs.Registry) {
	reg.Counter("duet_requests")
	reg.Gauge("queue_depth")
	reg.Counter("duet_Bad-Name_total")
	reg.Counter(obs.Series("requests", "dev", "cpu"))
}
`})
		wantDiags(t, diags,
			`counter "duet_requests" must end in _total`,
			`metric "queue_depth" lacks a subsystem prefix`,
			`metric "duet_Bad-Name_total" is not lower_snake_case`,
			`metric "requests" lacks a subsystem prefix`,
			`counter "requests" must end in _total`,
		)
	})

	t.Run("flags kind conflicts across files of one package", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{
			"a.go": `package p

import "duet/internal/obs"

func a(reg *obs.Registry) { reg.Counter("duet_ops_total") }
`,
			"b.go": `package p

import "duet/internal/obs"

func b(reg *obs.Registry) { reg.Gauge("duet_ops_total") }
`,
		})
		wantDiags(t, diags, `metric "duet_ops_total" registered as Gauge here and as Counter`)
	})

	t.Run("accepts the convention and non-literal names", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "duet/internal/obs"

func register(reg *obs.Registry, dynamic string) {
	reg.Counter("duet_requests_total")
	reg.Gauge("serve_queue_depth")
	reg.Counter(obs.Series("serve_batch_total", "rows", "8"))
	reg.Gauge(dynamic)
}
`})
		wantDiags(t, diags)
	})
}

func TestRunFilesSkipsTests(t *testing.T) {
	diags := runOn(t, []*Analyzer{VClockPurity()}, map[string]string{"a_test.go": `package p

import (
	"time"

	"duet/internal/vclock"
)

var _ vclock.Seconds

func bad() { _ = time.Now() }
`})
	wantDiags(t, diags)
}

// TestRepoIsClean is the acceptance gate: the shipped suite must report zero
// findings over the repository's own source tree.
func TestRepoIsClean(t *testing.T) {
	diags, err := RunDir(DUET(), "../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
