package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// DUET returns the repo's analyzer suite, in the order cmd/duet-vet runs it.
func DUET() []*Analyzer {
	return []*Analyzer{VClockPurity(), ArenaInto(), ObsNames(), LockOrder(), ChanLeak(), SharedNoEscape()}
}

const (
	vclockPath = "duet/internal/vclock"
	tensorPath = "duet/internal/tensor"
	obsPath    = "duet/internal/obs"
)

// VClockPurity reports wall-clock and global-randomness escapes in
// virtual-clock-governed code. A file that imports duet/internal/vclock
// participates in deterministic virtual time: calling time.Now/time.Since
// there re-introduces wall-clock nondeterminism the virtual clock exists to
// remove, the sleep/timer family (time.Sleep, time.After, time.Tick,
// time.NewTimer, time.NewTicker) blocks simulated progress on the host
// scheduler, and the global math/rand functions bypass the seeded *rand.Rand
// streams that make runs reproducible. Constructing local generators
// (rand.New, rand.NewSource) and using *rand.Rand methods stays legal, as
// does wall-clock use in files that never touch the virtual clock (e.g. the
// experiment harness's real-time kernel benchmarks).
func VClockPurity() *Analyzer {
	bannedTime := map[string]bool{
		"Now": true, "Since": true, "Until": true,
		// The sleep/timer family blocks on the wall clock, which a
		// virtual-clock simulation must never do: virtual seconds advance by
		// event bookkeeping, not by the host scheduler.
		"Sleep": true, "After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	}
	allowedRand := map[string]bool{"New": true, "NewSource": true, "NewZipf": true}
	return &Analyzer{
		Name: "vclockpurity",
		Doc:  "forbid wall-clock reads, sleeps/timers, and global math/rand in virtual-clock-governed files",
		Run: func(p *Pass) {
			for _, f := range p.Files {
				imports := fileImports(f)
				if _, governed := imports[vclockPath]; !governed {
					continue
				}
				timeName := imports["time"]
				randName := imports["math/rand"]
				if randName == "" {
					randName = imports["math/rand/v2"]
				}
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					qual, name, ok := calleeOf(call)
					if !ok {
						return true
					}
					if timeName != "" && qual == timeName && bannedTime[name] {
						p.Reportf(call.Pos(), "%s.%s in a virtual-clock-governed file — derive timing from vclock.Seconds instead", qual, name)
					}
					if randName != "" && qual == randName && !allowedRand[name] {
						p.Reportf(call.Pos(), "global %s.%s in a virtual-clock-governed file — draw from a seeded *rand.Rand instead", qual, name)
					}
					return true
				})
			}
		},
	}
}

// ArenaInto reports fresh tensor allocation inside *Into kernels that take an
// arena. The Into-suffix contract is that the destination and any scratch
// come from the caller or the threaded arena; a make([]float32,...) or a
// bare tensor constructor inside such a kernel silently defeats buffer
// recycling, which is exactly the class of regression the arena was
// introduced to prevent. Arena methods (ar.New, ar.NewNoZero, scratch
// helpers) remain the sanctioned allocation path.
func ArenaInto() *Analyzer {
	constructors := map[string]bool{"New": true, "NewNoZero": true, "Zeros": true, "Full": true, "FromSlice": true, "Rand": true}
	return &Analyzer{
		Name: "arenainto",
		Doc:  "forbid fresh tensor allocation in *Into kernels that thread an arena",
		Run: func(p *Pass) {
			for _, f := range p.Files {
				imports := fileImports(f)
				tensorName := imports[tensorPath]
				inTensorPkg := f.Name.Name == "tensor"
				if tensorName == "" && !inTensorPkg {
					continue
				}
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Body == nil || !strings.HasSuffix(fn.Name.Name, "Into") {
						continue
					}
					arenaParams := arenaParamNames(fn, tensorName, inTensorPkg)
					if len(arenaParams) == 0 {
						continue
					}
					ast.Inspect(fn.Body, func(n ast.Node) bool {
						switch e := n.(type) {
						case *ast.CallExpr:
							if id, ok := e.Fun.(*ast.Ident); ok {
								if id.Name == "make" && len(e.Args) > 0 && isSliceType(e.Args[0]) {
									p.Reportf(e.Pos(), "%s allocates with make inside an arena-threaded kernel — use the arena's New/NewNoZero", fn.Name.Name)
								}
								if inTensorPkg && constructors[id.Name] {
									p.Reportf(e.Pos(), "%s calls %s — allocate through the threaded arena instead", fn.Name.Name, id.Name)
								}
							}
							if qual, name, ok := calleeOf(e); ok && tensorName != "" && qual == tensorName && constructors[name] {
								p.Reportf(e.Pos(), "%s calls %s.%s — allocate through the threaded arena instead", fn.Name.Name, qual, name)
							}
						case *ast.CompositeLit:
							if typeIsTensor(e.Type, tensorName, inTensorPkg) {
								p.Reportf(e.Pos(), "%s builds a Tensor literal — allocate through the threaded arena instead", fn.Name.Name)
							}
						}
						return true
					})
				}
			}
		},
	}
}

// arenaParamNames returns the names of fn's parameters whose type is *Arena
// (in package tensor) or *tensor.Arena (elsewhere); empty when fn does not
// thread an arena.
func arenaParamNames(fn *ast.FuncDecl, tensorName string, inTensorPkg bool) []string {
	var out []string
	if fn.Type.Params == nil {
		return out
	}
	for _, field := range fn.Type.Params.List {
		star, ok := field.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		isArena := false
		switch t := star.X.(type) {
		case *ast.Ident:
			isArena = inTensorPkg && t.Name == "Arena"
		case *ast.SelectorExpr:
			if id, ok := t.X.(*ast.Ident); ok {
				isArena = tensorName != "" && id.Name == tensorName && t.Sel.Name == "Arena"
			}
		}
		if !isArena {
			continue
		}
		for _, name := range field.Names {
			out = append(out, name.Name)
		}
		if len(field.Names) == 0 {
			out = append(out, "_")
		}
	}
	return out
}

func isSliceType(e ast.Expr) bool {
	_, ok := e.(*ast.ArrayType)
	return ok
}

func typeIsTensor(e ast.Expr, tensorName string, inTensorPkg bool) bool {
	switch t := e.(type) {
	case *ast.Ident:
		return inTensorPkg && t.Name == "Tensor"
	case *ast.SelectorExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return tensorName != "" && id.Name == tensorName && t.Sel.Name == "Tensor"
		}
	}
	return false
}

// ObsNames enforces the metric naming convention at every registration site
// in files importing duet/internal/obs: literal names passed to
// Counter/Gauge/Histogram (directly or through obs.Series) must be
// lower_snake_case, carry a known subsystem prefix (duet_ or serve_),
// counters must end in _total, and one name must not be registered as two
// different instrument kinds within a package.
func ObsNames() *Analyzer {
	return &Analyzer{
		Name: "obsnames",
		Doc:  "enforce metric naming: prefix, charset, counter _total suffix, kind-unique names",
		Run: func(p *Pass) {
			kinds := map[string]string{}      // metric name -> first kind seen
			kindPos := map[string]token.Pos{} // metric name -> first registration
			for _, f := range p.Files {
				imports := fileImports(f)
				obsName := imports[obsPath]
				if obsName == "" {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					_, method, ok := calleeOf(call)
					if !ok || (method != "Counter" && method != "Gauge" && method != "Histogram") || len(call.Args) == 0 {
						return true
					}
					name, pos, ok := metricNameArg(call.Args[0], obsName)
					if !ok {
						return true
					}
					checkMetricName(p, pos, method, name)
					if prev, seen := kinds[name]; seen && prev != method {
						p.Reportf(pos, "metric %q registered as %s here and as %s at %s — one name, one instrument kind",
							name, method, prev, p.Fset.Position(kindPos[name]))
					} else if !seen {
						kinds[name] = method
						kindPos[name] = pos
					}
					return true
				})
			}
		},
	}
}

// metricNameArg extracts the literal metric name from a registration call's
// first argument: either a string literal, or an obs.Series("name", ...)
// call whose first argument is a string literal. Non-literal names are not
// checkable and are skipped.
func metricNameArg(arg ast.Expr, obsName string) (string, token.Pos, bool) {
	if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
		if s, err := strconv.Unquote(lit.Value); err == nil {
			return s, lit.Pos(), true
		}
		return "", 0, false
	}
	call, ok := arg.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", 0, false
	}
	if qual, name, ok := calleeOf(call); !ok || qual != obsName || name != "Series" {
		return "", 0, false
	}
	return metricNameArg(call.Args[0], obsName)
}

func checkMetricName(p *Pass, pos token.Pos, method, name string) {
	for i := 0; i < len(name); i++ {
		c := name[i]
		lower := c >= 'a' && c <= 'z'
		digit := c >= '0' && c <= '9'
		if !lower && !digit && c != '_' || i == 0 && !lower {
			p.Reportf(pos, "metric %q is not lower_snake_case starting with a letter", name)
			break
		}
	}
	if !strings.HasPrefix(name, "duet_") && !strings.HasPrefix(name, "serve_") {
		p.Reportf(pos, "metric %q lacks a subsystem prefix (duet_ or serve_)", name)
	}
	if method == "Counter" && !strings.HasSuffix(name, "_total") {
		p.Reportf(pos, "counter %q must end in _total", name)
	}
}
