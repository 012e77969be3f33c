package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file holds the concurrency analyzers: lockorder (consistent mutex
// acquisition order), chanleak (goroutines parked forever on a send when an
// error path returns early), and sharednoescape (ParallelForChunked bodies racing
// on captured state). Like the rest of the suite they are purely syntactic:
// lock classes and channel identities are resolved by name and declared
// type, which is exact for this codebase's idioms (locks are `x.mu` fields
// on named receivers; channels are function-local).

// lockClass renders the receiver chain of a Lock/Unlock call as a stable
// class name: the root identifier is replaced by its declared type when it
// is a receiver or parameter of the enclosing function (`s.mu.Lock()` in
// `func (s *Server)` → "Server.mu"), so every method of one type agrees on
// the class regardless of receiver spelling. A chain that is not a pure
// identifier/selector path (indexing, calls) has no stable class and is
// skipped.
func lockClass(sel *ast.SelectorExpr, scope map[string]string) (string, bool) {
	var parts []string
	cur := ast.Expr(sel.X)
	for {
		switch e := cur.(type) {
		case *ast.Ident:
			root := e.Name
			if tn, ok := scope[root]; ok {
				root = tn
			}
			parts = append([]string{root}, parts...)
			return strings.Join(parts, "."), true
		case *ast.SelectorExpr:
			parts = append([]string{e.Sel.Name}, parts...)
			cur = e.X
		default:
			return "", false
		}
	}
}

// typeBaseName strips pointers and package qualifiers off a type expression,
// returning the rightmost identifier ("*pkg.Server" → "Server").
func typeBaseName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel.Name
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// fieldScope maps each receiver/parameter name of fn to its type's base
// name.
func fieldScope(recv *ast.FieldList, params *ast.FieldList) map[string]string {
	scope := map[string]string{}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			tn := typeBaseName(f.Type)
			if tn == "" {
				continue
			}
			for _, name := range f.Names {
				scope[name.Name] = tn
			}
		}
	}
	add(recv)
	add(params)
	return scope
}

// LockOrder reports lock-order inversions: two mutex classes each acquired
// while the other is held, somewhere in one package — the classic ABBA
// deadlock. It tracks the held set through each function body in statement
// order: Lock/RLock pushes a class, Unlock/RUnlock pops it, a deferred
// Unlock holds the class to function end, and function literals start from
// an empty held set (a goroutine does not inherit its spawner's locks).
// Branch bodies are analyzed with a copy of the held set, so acquisitions
// inside a branch never leak past it.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "report mutex classes acquired in opposite orders (ABBA deadlocks)",
		Run: func(p *Pass) {
			// ordered["A\x00B"] = first site acquiring B while holding A.
			ordered := map[string]token.Pos{}
			record := func(held []string, class string, pos token.Pos) {
				for _, h := range held {
					if h == class {
						continue // re-acquiring one class is the recursion analyzers' business
					}
					key := h + "\x00" + class
					if _, seen := ordered[key]; !seen {
						ordered[key] = pos
					}
				}
			}

			// lockCall classifies stmt as an acquisition or release of a
			// class, when it is one.
			lockCall := func(stmt ast.Stmt, scope map[string]string) (class string, acquire, ok bool) {
				es, isExpr := stmt.(*ast.ExprStmt)
				if !isExpr {
					return "", false, false
				}
				call, isCall := es.X.(*ast.CallExpr)
				if !isCall {
					return "", false, false
				}
				sel, isSel := call.Fun.(*ast.SelectorExpr)
				if !isSel {
					return "", false, false
				}
				switch sel.Sel.Name {
				case "Lock", "RLock":
					acquire = true
				case "Unlock", "RUnlock":
				default:
					return "", false, false
				}
				class, ok = lockClass(sel, scope)
				return class, acquire, ok
			}

			var walk func(list []ast.Stmt, held []string, scope map[string]string) []string
			walk = func(list []ast.Stmt, held []string, scope map[string]string) []string {
				branch := func(s ast.Stmt) {
					if s == nil {
						return
					}
					walk([]ast.Stmt{s}, append([]string(nil), held...), scope)
				}
				for _, stmt := range list {
					if class, acquire, ok := lockCall(stmt, scope); ok {
						if acquire {
							record(held, class, stmt.Pos())
							held = append(held, class)
						} else {
							for i := len(held) - 1; i >= 0; i-- {
								if held[i] == class {
									held = append(held[:i:i], held[i+1:]...)
									break
								}
							}
						}
						continue
					}
					switch s := stmt.(type) {
					case *ast.BlockStmt:
						held = walk(s.List, held, scope)
					case *ast.IfStmt:
						branch(s.Init)
						walk(s.Body.List, append([]string(nil), held...), scope)
						branch(s.Else)
					case *ast.ForStmt:
						walk(s.Body.List, append([]string(nil), held...), scope)
					case *ast.RangeStmt:
						walk(s.Body.List, append([]string(nil), held...), scope)
					case *ast.SwitchStmt:
						for _, c := range s.Body.List {
							if cc, ok := c.(*ast.CaseClause); ok {
								walk(cc.Body, append([]string(nil), held...), scope)
							}
						}
					case *ast.TypeSwitchStmt:
						for _, c := range s.Body.List {
							if cc, ok := c.(*ast.CaseClause); ok {
								walk(cc.Body, append([]string(nil), held...), scope)
							}
						}
					case *ast.SelectStmt:
						for _, c := range s.Body.List {
							if cc, ok := c.(*ast.CommClause); ok {
								walk(cc.Body, append([]string(nil), held...), scope)
							}
						}
					case *ast.LabeledStmt:
						held = walk([]ast.Stmt{s.Stmt}, held, scope)
					case *ast.DeferStmt, *ast.GoStmt:
						// A deferred Unlock keeps the class held (we simply
						// never pop it); function literals are collected by
						// the per-function FuncLit sweep below.
					}
				}
				return held
			}

			for _, f := range p.Files {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Body == nil {
						continue
					}
					scope := fieldScope(fn.Recv, fn.Type.Params)
					walk(fn.Body.List, nil, scope)
					// Every function literal starts from an empty held set,
					// with its own parameters in scope.
					ast.Inspect(fn.Body, func(n ast.Node) bool {
						if lit, ok := n.(*ast.FuncLit); ok {
							walk(lit.Body.List, nil, fieldScope(nil, lit.Type.Params))
						}
						return true
					})
				}
			}

			keys := make([]string, 0, len(ordered))
			for k := range ordered {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				ab := strings.SplitN(k, "\x00", 2)
				a, b := ab[0], ab[1]
				if a > b {
					continue // report each unordered pair once, from its sorted side
				}
				rev, inverted := ordered[b+"\x00"+a]
				if !inverted {
					continue
				}
				pos := ordered[k]
				p.Reportf(rev, "lock order inversion: %s acquired while holding %s, but %s acquires them in the opposite order — pick one order",
					a, b, p.Fset.Position(pos))
			}
		},
	}
}

// ChanLeak reports goroutines that send on a function-local unbuffered
// channel when an early return between the goroutine launch and the first
// receive can leave the send without a receiver forever — the canonical
// leaked-goroutine shape of
//
//	ch := make(chan T)
//	go func() { ch <- slow() }()
//	if err != nil { return err } // ch is never received: the goroutine parks for good
//	v := <-ch
//
// A channel that escapes the function (passed, stored, returned), a
// buffered channel, and a send guarded by a select with a default case are
// all exempt.
func ChanLeak() *Analyzer {
	return &Analyzer{
		Name: "chanleak",
		Doc:  "report goroutine sends on local unbuffered channels that error-path returns strand",
		Run: func(p *Pass) {
			for _, f := range p.Files {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Body == nil {
						continue
					}
					chanLeakFunc(p, fn.Body)
				}
			}
		},
	}
}

// span is a source region; used to test membership of positions in
// goroutine bodies and select statements.
type span struct{ lo, hi token.Pos }

func (s span) contains(pos token.Pos) bool { return s.lo <= pos && pos <= s.hi }

func chanLeakFunc(p *Pass, body *ast.BlockStmt) {
	// Regions of goroutine func-literal bodies and of selects that have a
	// default clause (sends inside the latter cannot block).
	var goBodies, safeSelects, funcLits []span
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
				goBodies = append(goBodies, span{lit.Body.Pos(), lit.Body.End()})
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					safeSelects = append(safeSelects, span{s.Pos(), s.End()})
				}
			}
		case *ast.FuncLit:
			funcLits = append(funcLits, span{s.Pos(), s.End()})
		}
		return true
	})
	inAny := func(spans []span, pos token.Pos) bool {
		for _, s := range spans {
			if s.contains(pos) {
				return true
			}
		}
		return false
	}

	// Local unbuffered channels: name → declaration position. Declarations
	// inside function literals belong to that literal, not to this body.
	chans := map[string]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "make" {
				continue
			}
			if len(call.Args) != 1 {
				continue // a capacity argument makes the send non-blocking up to cap
			}
			if _, ok := call.Args[0].(*ast.ChanType); !ok {
				continue
			}
			lhs, ok := as.Lhs[i].(*ast.Ident)
			if !ok || lhs.Name == "_" || inAny(funcLits, as.Pos()) {
				continue
			}
			chans[lhs.Name] = as.Pos()
		}
		return true
	})

	for name, declPos := range chans {
		var sends, recvs []token.Pos // sends: inside go bodies; recvs: anywhere
		var escapes bool
		benign := map[token.Pos]bool{benignPos(declPos): true}
		// First sweep: recognize sanctioned uses and record their ident
		// positions, so the second sweep can treat every other mention as an
		// escape.
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.SendStmt:
				if id, ok := s.Chan.(*ast.Ident); ok && id.Name == name {
					benign[id.Pos()] = true
					if inAny(goBodies, s.Pos()) && !inAny(safeSelects, s.Pos()) {
						sends = append(sends, s.Pos())
					}
				}
			case *ast.UnaryExpr:
				if s.Op == token.ARROW {
					if id, ok := s.X.(*ast.Ident); ok && id.Name == name {
						benign[id.Pos()] = true
						recvs = append(recvs, s.Pos())
					}
				}
			case *ast.RangeStmt:
				if id, ok := s.X.(*ast.Ident); ok && id.Name == name {
					benign[id.Pos()] = true
					recvs = append(recvs, s.Pos())
				}
			case *ast.CallExpr:
				if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "close" && len(s.Args) == 1 {
					if arg, ok := s.Args[0].(*ast.Ident); ok && arg.Name == name {
						benign[arg.Pos()] = true
					}
				}
			case *ast.AssignStmt:
				if s.Tok == token.DEFINE {
					for _, lhs := range s.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && id.Name == name && id.Pos() == declPosIdent(s, name) {
							benign[id.Pos()] = true
						}
					}
				}
			}
			return true
		})
		ast.Inspect(body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name && !benign[id.Pos()] {
				escapes = true
			}
			return true
		})
		if escapes || len(sends) == 0 {
			continue
		}
		firstRecv := token.Pos(-1)
		for _, r := range recvs {
			if firstRecv < 0 || r < firstRecv {
				firstRecv = r
			}
		}
		// Early returns of the enclosing function between the goroutine
		// launch and the first receive strand the sender.
		var returns []token.Pos
		ast.Inspect(body, func(n ast.Node) bool {
			if r, ok := n.(*ast.ReturnStmt); ok && !inAny(funcLits, r.Pos()) {
				returns = append(returns, r.Pos())
			}
			return true
		})
		for _, send := range sends {
			if firstRecv < 0 {
				p.Reportf(send, "goroutine sends on %s but this function never receives from it — the sender parks forever", name)
				break
			}
			reported := false
			for _, r := range returns {
				if send < r && r < firstRecv {
					p.Reportf(send, "goroutine sends on %s but the return at %s can exit before the receive — buffer the channel or receive before returning",
						name, p.Fset.Position(r))
					reported = true
					break
				}
			}
			if reported {
				break
			}
		}
	}
}

// benignPos marks the declaration site itself as a sanctioned use.
func benignPos(declPos token.Pos) token.Pos { return declPos }

// declPosIdent returns the position of name on the LHS of its defining
// assignment (so redeclaration sweeps do not count it as an escape).
func declPosIdent(as *ast.AssignStmt, name string) token.Pos {
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == name {
			return id.Pos()
		}
	}
	return token.NoPos
}

// SharedNoEscape reports ParallelForChunked bodies, and the item
// bodies of package tensor's unexported step loop (stepLoop), whose workers
// race on captured state: assigning a captured variable (every worker
// writes the same scalar or slice header), or writing a captured slice at
// an index that uses none of the body's own variables (every worker
// collides on one element). Index-disjoint writes — s[i] for a body-
// declared i — are the sanctioned pattern and stay silent.
func SharedNoEscape() *Analyzer {
	return &Analyzer{
		Name: "sharednoescape",
		Doc:  "report ParallelForChunked bodies assigning captured variables or writing loop-invariant indices",
		Run: func(p *Pass) {
			for _, f := range p.Files {
				imports := fileImports(f)
				tensorName := imports[tensorPath]
				inTensorPkg := f.Name.Name == "tensor"
				if tensorName == "" && !inTensorPkg {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if !isParallelFor(call, tensorName, inTensorPkg) {
						return true
					}
					lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
					if !ok {
						return true
					}
					checkParallelBody(p, lit)
					return true
				})
			}
		},
	}
}

func isParallelFor(call *ast.CallExpr, tensorName string, inTensorPkg bool) bool {
	if len(call.Args) == 0 {
		return false
	}
	if qual, name, ok := calleeOf(call); ok {
		return tensorName != "" && qual == tensorName && name == "ParallelForChunked"
	}
	if id, ok := call.Fun.(*ast.Ident); ok && inTensorPkg {
		return id.Name == "ParallelForChunked" || id.Name == "stepLoop"
	}
	return false
}

func checkParallelBody(p *Pass, lit *ast.FuncLit) {
	locals := map[string]bool{}
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, name := range f.Names {
				locals[name.Name] = true
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						locals[id.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			if s.Tok == token.DEFINE {
				for _, e := range []ast.Expr{s.Key, s.Value} {
					if id, ok := e.(*ast.Ident); ok {
						locals[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range s.Names {
				locals[id.Name] = true
			}
		}
		return true
	})
	usesLocal := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && locals[id.Name] {
				found = true
			}
			return true
		})
		return found
	}
	flagWrite := func(lhs ast.Expr) {
		switch t := lhs.(type) {
		case *ast.Ident:
			if t.Name != "_" && !locals[t.Name] {
				p.Reportf(t.Pos(), "parallel body assigns captured variable %s — every worker races on it; accumulate per-range and reduce after the join", t.Name)
			}
		case *ast.IndexExpr:
			root, ok := rootIdent(t.X)
			if !ok || locals[root.Name] {
				return
			}
			if !usesLocal(t.Index) {
				p.Reportf(t.Pos(), "parallel body writes %s at a loop-invariant index — workers collide on one element; index by the body's own range variables", exprText(t.X))
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested literals have their own capture story
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range s.Lhs {
				flagWrite(lhs)
			}
		case *ast.IncDecStmt:
			flagWrite(s.X)
		}
		return true
	})
}

// rootIdent returns the identifier at the base of an ident/selector chain.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t, true
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		default:
			return nil, false
		}
	}
}

// exprText renders an ident/selector chain for diagnostics.
func exprText(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return exprText(t.X) + "." + t.Sel.Name
	case *ast.IndexExpr:
		return exprText(t.X) + "[...]"
	default:
		return fmt.Sprintf("%T", e)
	}
}
