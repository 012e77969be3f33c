package relay

import (
	"strings"
	"testing"
)

// FuzzParse checks that the parser never panics and that accepted programs
// survive a print/reparse round trip. The seed corpus runs as a regular
// test; `go test -fuzz=FuzzParse ./internal/relay` explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		sample,
		`fn (%x: Tensor[(2)]) { %a = relu(%x); %a }`,
		`fn () { %a = relu(%b); %a }`,
		`fn (%x: Tensor[(1, 2, 3)]) { %a = reshape(%x) {shape=[6, -1]}; (%a) }`,
		`fn (%x: Tensor[(2)]) { %a = add(%x, @w); %a }`,
		`fn (%x: Tensor[(2)]) { (%x,) }`,
		`fn (%x: Tensor[(2)]) { %a = f(%x) {k="v", n=3, l=[1]}; %a }`,
		`fn (%x: Tensor[(2)]) { %a = f(%x) {k="a\b"}; %a }`,
		`fn (%x: Tensor[(2)]) { %a = f(%x) {k="say "hi""}; %a }`,
		`fn (%x: Tensor[(2)]) { %a = f(%x) {k="tab	here"}; %a }`,
		"fn (%x: Tensor[(2)]) {\n// comment\n %a = relu(%x); %a }",
		`fn (%x: Tensor[(-1)]) { %x }`,
		`fn(%x:Tensor[(2)]){%a=relu(%x);%a}`,
		``, `fn`, `fn (`, `{{{`, `%%%`, `fn (%x: Tensor[(2)]) {`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		printed := m.String()
		m2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\ninput: %q\nprinted: %q", err, src, printed)
		}
		if m2.String() != printed {
			t.Fatalf("print is not a fixed point:\n%q\nvs\n%q", printed, m2.String())
		}
	})
}

// FuzzParseNoCrashOnMutations stresses structural mutations of a valid
// program.
func FuzzParseNoCrashOnMutations(f *testing.F) {
	base := `fn (%x: Tensor[(1, 8)]) { %a = dense(%x, @w); %b = relu(%a); %b }`
	for i := 0; i < len(base); i += 7 {
		f.Add(base[:i] + base[min(i+3, len(base)):])
	}
	f.Add(strings.Repeat("(", 1000))
	f.Add(strings.Repeat("%a = relu(%a);", 100))
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Parse(src) // must not panic or hang
	})
}
