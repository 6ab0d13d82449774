package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// NewErrSink builds the error-sink analyzer for the state packages: on
// checkpoint, recovery, and changelog paths a swallowed error reintroduces
// exactly the silent data loss PR 5 converted panics into errors to
// surface. Three sinks are flagged, flow-sensitively and per function:
//
//   - an error result discarded with _ (either `_ = f()` or the error
//     position of a multi-assign);
//   - a call, deferred call, or go statement whose results include an
//     error that nothing receives;
//   - a local error variable reassigned before its current value was
//     read, or still unread when the function ends.
//
// "Read" is any use of the variable — a comparison, a return, a wrapping
// call, capture by a closure. The last rule runs on the flow walker
// (flow.go) as reaching assignments: each path carries the assignments
// that reach it, and a read marks every one of them read, once for the
// whole function. An assignment counts as checked when any path reads it,
// a path that returns early included (the analysis is deliberately
// permissive: it only reports errors no syntactic path checks), so a loop
// that reads a value on its next iteration checks it. Struct fields and
// package variables are out of scope — only locals and named results are
// tracked.
func NewErrSink(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "errsink",
		Doc:  "flags discarded, unchecked, and overwritten-before-check error values on state paths",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		var diags []Diagnostic
		for _, n := range m.Graph().Nodes {
			if len(scope) == 0 || pathMatches(n.Pkg.Path, scope) {
				diags = append(diags, errSinkFunc(a, n)...)
			}
		}
		return diags
	}
	return a
}

// errState is one path's reaching assignments: the (variable, site)
// pairs whose value may still be the variable's current one.
type errState struct {
	defs []errDef
	dead bool
}

type errDef struct {
	v  *types.Var
	at token.Pos
}

func (s *errState) clone() *errState {
	return &errState{defs: slices.Clone(s.defs), dead: s.dead}
}

func (s *errState) join(o *errState) *errState {
	if o.isDead() {
		return s
	}
	if s.isDead() {
		return o.clone()
	}
	for _, d := range o.defs {
		if !slices.Contains(s.defs, d) {
			s.defs = append(s.defs, d)
		}
	}
	return s
}

func (s *errState) size() int    { return len(s.defs) }
func (s *errState) isDead() bool { return s == nil || s.dead }
func (s *errState) kill()        { s.dead = true }

// set makes site at (NoPos: none) the only reaching assignment of v,
// reporting each one it replaces to replaced.
func (s *errState) set(v *types.Var, at token.Pos, replaced func(prev token.Pos)) {
	s.defs = slices.DeleteFunc(s.defs, func(d errDef) bool {
		if d.v == v && replaced != nil {
			replaced(d.at)
		}
		return d.v == v
	})
	if at != token.NoPos {
		s.defs = append(s.defs, errDef{v: v, at: at})
	}
}

// errRules are errsink's transfer functions for one function body.
type errRules struct {
	a *Analyzer
	p *Package
	// tracked holds the locals and named results of exact type error that
	// the overwrite/unread checks apply to.
	tracked map[*types.Var]bool
	results map[*types.Var]bool // named error results: a bare return reads them
	read    map[token.Pos]bool  // assignment sites some path reads
	// events are the reassignments and exits the assignments reach, in
	// walk order; read decides after the walk which ones are reported.
	events []errEvent
	seen   map[errEvent]bool
	diags  []Diagnostic
	said   map[string]bool
}

// errEvent is assignment site prev of v reaching a reassignment at at, or
// a function exit when at is NoPos.
type errEvent struct {
	v        *types.Var
	at, prev token.Pos
}

// errSinkFunc analyzes one call-graph node. Nested function literals are
// nodes of their own; here their interiors only count as reads of the
// enclosing function's variables.
func errSinkFunc(a *Analyzer, n *CGNode) []Diagnostic {
	r := &errRules{a: a, p: n.Pkg, tracked: map[*types.Var]bool{}, results: map[*types.Var]bool{},
		read: map[token.Pos]bool{}, seen: map[errEvent]bool{}, said: map[string]bool{}}
	results := nodeSig(n).Results()
	for i := 0; i < results.Len(); i++ {
		if v := results.At(i); v.Name() != "" && errorType(v.Type()) {
			r.tracked[v] = true
			r.results[v] = true
		}
	}
	walkFlow[*errState](n.Pkg, r, n.Body, &errState{})
	for _, e := range r.events {
		switch {
		case r.read[e.prev]:
		case e.at == token.NoPos:
			r.diag(e.prev, "error assigned to %s is never checked", e.v.Name())
		case e.at != e.prev || !r.seen[errEvent{v: e.v, prev: e.prev}]:
			// A loop reassigning its own unread value is reported once,
			// as never checked, when the value also reaches an exit.
			r.diag(e.at, "%s is reassigned before the error assigned at line %d is checked",
				e.v.Name(), r.p.Fset.Position(e.prev).Line)
		}
	}
	return r.diags
}

// diag reports one finding once: a loop's later iterations revisit its
// sites.
func (r *errRules) diag(pos token.Pos, format string, args ...any) {
	d := r.a.Diag(r.p, pos, format, args...)
	if key := d.String(); !r.said[key] {
		r.said[key] = true
		r.diags = append(r.diags, d)
	}
}

func (r *errRules) event(e errEvent) {
	if !r.seen[e] {
		r.seen[e] = true
		r.events = append(r.events, e)
	}
}

func (r *errRules) leaf(s *errState, st ast.Stmt) {
	switch x := st.(type) {
	case *ast.AssignStmt:
		r.assign(s, x)
	case *ast.DeclStmt:
		r.decl(s, x)
	case *ast.ExprStmt:
		r.reads(s, x.X)
		if call, ok := unparen(x.X).(*ast.CallExpr); ok {
			r.uncheckedCall(call, "call to")
		}
	case *ast.DeferStmt:
		r.reads(s, x.Call)
		r.uncheckedCall(x.Call, "deferred call to")
	case *ast.GoStmt:
		r.reads(s, x.Call)
		r.uncheckedCall(x.Call, "go call to")
	case *ast.ReturnStmt:
		r.reads(s, x)
		if len(x.Results) == 0 {
			// A bare return hands the named results to the caller.
			for v := range r.results {
				r.readVar(s, v)
			}
		}
	default:
		// SendStmt, IncDecStmt: plain reads.
		r.reads(s, st)
	}
}

func (r *errRules) cond(s *errState, e ast.Expr)          { r.reads(s, e) }
func (r *errRules) assume(*errState, ast.Expr, bool)      {}
func (r *errRules) selectHead(*errState, *ast.SelectStmt) {}

func (r *errRules) rangeHead(s *errState, st *ast.RangeStmt) func(*errState) {
	r.reads(s, st.X)
	return nil
}

// exit records the assignments still reaching the end of the function.
func (r *errRules) exit(s *errState, _ token.Pos) {
	for _, d := range s.defs {
		r.event(errEvent{v: d.v, prev: d.at})
	}
}

// assign handles = and := statements: blank discards, overwrites of
// pending errors, and new pending assignments.
func (r *errRules) assign(s *errState, as *ast.AssignStmt) {
	for _, e := range as.Rhs {
		r.reads(s, e)
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return // compound assignment ops never produce errors
	}
	callDesc := ""
	if len(as.Rhs) == 1 {
		if call, ok := unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			callDesc = types.ExprString(call.Fun)
		}
	}
	for i, l := range as.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			// m[k] = ... reads m and k; a write through a selector or
			// index is never a tracked local.
			r.reads(s, l)
			continue
		}
		if id.Name == "_" {
			if t := r.assignType(as, i); t != nil && errorType(t) {
				if callDesc != "" {
					r.diag(id.Pos(), "error result of %s is discarded", callDesc)
				} else {
					r.diag(id.Pos(), "error value is discarded")
				}
			}
			continue
		}
		var v *types.Var
		if as.Tok == token.DEFINE {
			v, _ = r.p.Info.Defs[id].(*types.Var)
			if v == nil {
				// Redeclaration inside a multi-variable := resolves as a use.
				v, _ = r.p.Info.Uses[id].(*types.Var)
			}
		} else {
			v, _ = r.p.Info.Uses[id].(*types.Var)
		}
		if v == nil || !errorType(v.Type()) {
			continue
		}
		if as.Tok == token.DEFINE {
			r.tracked[v] = true
		}
		if !r.tracked[v] {
			continue // parameter, package variable, or field: out of scope
		}
		at := id.Pos()
		if t := r.assignType(as, i); t != nil && isUntypedNil(t) {
			at = token.NoPos // explicit reset, nothing left to check
		}
		s.set(v, at, func(prev token.Pos) {
			r.event(errEvent{v: v, at: id.Pos(), prev: prev})
		})
	}
}

// assignType resolves the type flowing into LHS position i.
func (r *errRules) assignType(as *ast.AssignStmt, i int) types.Type {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if tup, ok := r.p.Info.Types[as.Rhs[0]].Type.(*types.Tuple); ok && i < tup.Len() {
			return tup.At(i).Type()
		}
		return nil
	}
	if i < len(as.Rhs) {
		return r.p.Info.Types[as.Rhs[i]].Type
	}
	return nil
}

// decl handles `var` statements, which can both declare tracked variables
// and leave an initial error pending.
func (r *errRules) decl(s *errState, ds *ast.DeclStmt) {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		r.reads(s, ds)
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, val := range vs.Values {
			r.reads(s, val)
		}
		for _, name := range vs.Names {
			v, _ := r.p.Info.Defs[name].(*types.Var)
			if v == nil || !errorType(v.Type()) {
				continue
			}
			r.tracked[v] = true
			at := token.NoPos
			if len(vs.Values) > 0 {
				at = name.Pos()
			}
			s.set(v, at, nil)
		}
	}
}

// uncheckedCall reports a statement-position call whose results include an
// error nothing receives.
func (r *errRules) uncheckedCall(call *ast.CallExpr, what string) {
	if typeHasError(r.p.Info.Types[call].Type) {
		r.diag(call.Pos(), "%s %s drops its error result", what, types.ExprString(call.Fun))
	}
}

// reads marks the assignments reaching every variable used anywhere inside
// n as read, function-literal interiors included: a captured error escapes
// the straight-line view, so the closure must count as a potential check.
func (r *errRules) reads(s *errState, n ast.Node) {
	if n == nil || len(s.defs) == 0 {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if v, ok := r.p.Info.Uses[id].(*types.Var); ok {
				r.readVar(s, v)
			}
		}
		return true
	})
}

func (r *errRules) readVar(s *errState, v *types.Var) {
	for _, d := range s.defs {
		if d.v == v {
			r.read[d.at] = true
		}
	}
}

// typeHasError reports whether t is, or is a tuple containing, the
// built-in error type.
func typeHasError(t types.Type) bool {
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if errorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return errorType(t)
}

// isUntypedNil reports whether t is the type of a literal nil.
func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
