// Package ddnilgate enforces the nil-gated plane contract on the
// optional observation planes (*journal.Journal, *trace.Tracer). The
// engine threads these as possibly-nil fields so a
// disabled plane costs one pointer check and — critically — so plane
// on/off cannot perturb the committed byte streams. That only holds if
// every exported method of a plane type is nil-receiver-safe: callers
// all over sim/police/gnet/metricsrv invoke plane methods without
// guarding, because the method itself is the gate.
//
// The analyzer proves the contract method by method. An exported
// pointer-receiver method on a plane type is nil-safe when, before any
// dereference of the receiver (field access, or a call to a method not
// itself proven safe), one of these holds:
//
//   - a dominating guard: `if recv == nil { return ... }` (possibly
//     `recv == nil || ...`), or the use sits inside an
//     `if recv != nil` body or the else-branch of a nil-check;
//   - the use is a call to a method of the same type already proven
//     nil-safe (delegation-first, e.g. Tail calling Events);
//   - the receiver is used only as a value (stored, compared, passed),
//     never dereferenced.
//
// Safety is computed as a fixpoint over the type's whole method set —
// unexported helpers included, since an exported method is only as
// safe as the helpers it calls before guarding. Methods that cannot be
// proven safe are findings; a reviewed //ddlint:allow nilgate with a
// reason is the escape hatch for shapes the proof cannot follow.
package ddnilgate

import (
	"go/ast"
	"go/token"
	"go/types"

	"ddpolice/internal/lint/analysis"
)

// planeTypes names the nil-gated types per defining package.
var planeTypes = map[string]map[string]bool{
	"ddpolice/internal/journal": {"Journal": true},
	"ddpolice/internal/trace":   {"Tracer": true},
}

var Analyzer = &analysis.Analyzer{
	Name: "ddnilgate",
	Doc:  "exported methods on the nil-gated plane types (journal.Journal, trace.Tracer) must be nil-receiver-safe",
	Run:  run,
}

type status int

const (
	unknown status = iota
	safe
	unsafe
)

type method struct {
	decl *ast.FuncDecl
	recv types.Object // receiver variable, nil if unnamed
	st   status
}

func run(pass *analysis.Pass) (interface{}, error) {
	names := planeTypes[pass.Pkg.Path()]
	if len(names) == 0 {
		return nil, nil
	}
	// Collect the full method set per plane type, unexported included.
	methods := map[string]map[string]*method{} // type name -> method name -> info
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			tname := recvTypeName(fd.Recv.List[0].Type)
			if !names[tname] {
				continue
			}
			m := &method{decl: fd}
			if recvNames := fd.Recv.List[0].Names; len(recvNames) > 0 && recvNames[0].Name != "_" {
				m.recv = pass.TypesInfo.Defs[recvNames[0]]
			}
			if methods[tname] == nil {
				methods[tname] = map[string]*method{}
			}
			methods[tname][fd.Name.Name] = m
		}
	}
	for tname, set := range methods {
		fixpoint(pass, tname, set)
		for _, m := range set {
			if m.decl.Name.IsExported() && m.st != safe {
				pass.Reportf(m.decl.Name.Pos(),
					"nil-receiver: exported method (*%s).%s dereferences its receiver before a nil guard; a nil %s plane must be inert (guard `if %s == nil`, or delegate first to a nil-safe method)",
					tname, m.decl.Name.Name, tname, recvName(m))
			}
		}
	}
	return nil, nil
}

func recvName(m *method) string {
	if m.recv != nil {
		return m.recv.Name()
	}
	return "recv"
}

func recvTypeName(expr ast.Expr) string {
	for {
		switch t := expr.(type) {
		case *ast.StarExpr:
			expr = t.X
		case *ast.IndexExpr: // generic receiver, not used by the planes
			expr = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// fixpoint resolves method safety until stable; anything still unknown
// (mutual recursion) is conservatively unsafe.
func fixpoint(pass *analysis.Pass, tname string, set map[string]*method) {
	for changed := true; changed; {
		changed = false
		for _, m := range set {
			if m.st != unknown {
				continue
			}
			if st := evaluate(pass, tname, set, m); st != unknown {
				m.st = st
				changed = true
			}
		}
	}
	for _, m := range set {
		if m.st == unknown {
			m.st = unsafe
		}
	}
}

// span is a half-open position range within which the receiver is
// known non-nil.
type span struct{ from, to token.Pos }

func (s span) contains(p token.Pos) bool { return p >= s.from && p < s.to }

// evaluate classifies one method: unsafe on the first unguarded
// dereference, unknown if safety hinges on a not-yet-resolved callee,
// safe otherwise.
func evaluate(pass *analysis.Pass, tname string, set map[string]*method, m *method) status {
	if m.recv == nil || m.decl.Body == nil {
		return safe // receiver never referenced
	}
	guards := guardedSpans(pass, m)
	result := safe
	walk(m.decl.Body, func(n ast.Node, stack []ast.Node) {
		if result == unsafe {
			return
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != m.recv {
			return
		}
		if inGuard(guards, id.Pos()) {
			return
		}
		switch classifyUse(pass, tname, set, id, stack) {
		case unsafe:
			result = unsafe
		case unknown:
			if result == safe {
				result = unknown
			}
		}
	})
	return result
}

// classifyUse decides whether one unguarded appearance of the receiver
// dereferences it. stack[len-1] is the ident's parent.
func classifyUse(pass *analysis.Pass, tname string, set map[string]*method, id *ast.Ident, stack []ast.Node) status {
	if len(stack) == 0 {
		return safe
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.StarExpr:
		return unsafe // *recv
	case *ast.SelectorExpr:
		if parent.X != id {
			return safe
		}
		// recv.Something: a call to a same-type method inherits that
		// method's status; a field access or method value is a deref.
		if len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == parent {
				if callee, ok := pass.TypesInfo.Uses[parent.Sel].(*types.Func); ok && methodOf(callee, tname) {
					if peer := set[callee.Name()]; peer != nil {
						return peer.st
					}
				}
				return unsafe // method of another type via embedding, or unknown callee
			}
		}
		return unsafe
	default:
		return safe // value use: argument, composite literal, comparison, assignment
	}
}

func methodOf(fn *types.Func, tname string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == tname
}

// guardedSpans collects the regions where the receiver is proven
// non-nil by an explicit nil check.
func guardedSpans(pass *analysis.Pass, m *method) []span {
	var spans []span
	body := m.decl.Body
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if nilCheck := orOperand(pass, ifs.Cond, m.recv, token.EQL); nilCheck != nil {
			// `if recv == nil || ... { terminate }`: the rest of the
			// condition short-circuits behind the check, the else
			// branch is non-nil, and if the body terminates so is
			// everything after the if.
			spans = append(spans, span{nilCheck.End(), ifs.Cond.End()})
			if ifs.Else != nil {
				spans = append(spans, span{ifs.Else.Pos(), ifs.Else.End()})
			}
			if terminates(ifs.Body) {
				spans = append(spans, span{ifs.End(), body.End()})
			}
		}
		if nilCheck := andOperand(pass, ifs.Cond, m.recv); nilCheck != nil {
			// `if recv != nil && ... { ... }`: the body and the
			// condition's tail are non-nil regions.
			spans = append(spans, span{nilCheck.End(), ifs.Cond.End()})
			spans = append(spans, span{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return spans
}

func inGuard(spans []span, p token.Pos) bool {
	for _, s := range spans {
		if s.contains(p) {
			return true
		}
	}
	return false
}

// orOperand returns the `recv <op> nil` comparison appearing as the
// condition itself or as a leading operand of an || chain.
func orOperand(pass *analysis.Pass, cond ast.Expr, recv types.Object, op token.Token) ast.Expr {
	if cmp := nilCompare(pass, cond, recv, op); cmp != nil {
		return cmp
	}
	if b, ok := cond.(*ast.BinaryExpr); ok && b.Op == token.LOR {
		if cmp := orOperand(pass, b.X, recv, op); cmp != nil {
			return cmp
		}
	}
	return nil
}

// andOperand returns the `recv != nil` comparison appearing as the
// condition itself or as a leading operand of an && chain.
func andOperand(pass *analysis.Pass, cond ast.Expr, recv types.Object) ast.Expr {
	if cmp := nilCompare(pass, cond, recv, token.NEQ); cmp != nil {
		return cmp
	}
	if b, ok := cond.(*ast.BinaryExpr); ok && b.Op == token.LAND {
		if cmp := andOperand(pass, b.X, recv); cmp != nil {
			return cmp
		}
	}
	return nil
}

func nilCompare(pass *analysis.Pass, expr ast.Expr, recv types.Object, op token.Token) ast.Expr {
	b, ok := expr.(*ast.BinaryExpr)
	if !ok || b.Op != op {
		return nil
	}
	if isRecv(pass, b.X, recv) && isNil(pass, b.Y) {
		return b
	}
	if isNil(pass, b.X) && isRecv(pass, b.Y, recv) {
		return b
	}
	return nil
}

func isRecv(pass *analysis.Pass, e ast.Expr, recv types.Object) bool {
	id, ok := e.(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == recv
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilConst := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNilConst
}

// terminates reports whether a block always leaves the function:
// return, panic, or os.Exit as its final statement.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				return fun.Sel.Name == "Exit" || fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf"
			}
		}
	}
	return false
}

// walk traverses the AST carrying the ancestor stack (innermost last).
func walk(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}
