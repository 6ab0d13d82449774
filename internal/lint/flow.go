package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the one flow walker under lockheld-send (lockheld.go),
// errsink (errsink.go) and the lifetime IR (dataflow.go). It walks a
// function body in program order and owns its control flow; each analysis
// supplies only a state and its transfer functions. The rules:
//
//   - an if forks the state and joins its arms; a switch with no default
//     also joins the path that takes no clause; a select never does;
//   - a loop iterates its body until the state at its head stops growing,
//     and exits from the head unless it is a for with no condition;
//   - break and continue, labelled or not, route their state to the
//     target's exit and the loop's head; fallthrough routes it into the
//     next clause;
//   - return runs the exit transfer and ends the path; goto and panic end
//     it without one.
//
// Joins are may-joins: a fact on any path reaching a point holds there.
// Function literals are not entered; each is a call-graph node of its own.

// flowIterCap bounds a loop's fixpoint iteration as a backstop; states
// built from per-site facts converge well before it.
const flowIterCap = 10

// flowState is one path's abstract state, a pointer type whose nil value is
// the empty join: isDead reports true for it and join treats it as dead.
// join merges o into the receiver and returns the result; a dead side
// contributes nothing. size grows with every fact a join adds, so an
// unchanged size means a fixpoint.
type flowState[S any] interface {
	clone() S
	join(o S) S
	size() int
	isDead() bool
	kill()
}

// flowRules are an analysis's transfer functions; they update the state in
// place.
type flowRules[S flowState[S]] interface {
	// leaf applies a straight-line statement, a select clause's
	// communication, a type switch's guard, or a return's results.
	leaf(s S, st ast.Stmt)
	// cond applies an if or for condition, a switch tag or a case
	// expression.
	cond(s S, e ast.Expr)
	// assume refines the state entering the if arm where cond is truth.
	assume(s S, cond ast.Expr, truth bool)
	// rangeHead applies a range operand, evaluated once before the loop;
	// the returned hook, if any, runs at the top of every iteration.
	rangeHead(s S, r *ast.RangeStmt) func(S)
	// selectHead sees a select before any clause is taken.
	selectHead(s S, sel *ast.SelectStmt)
	// exit runs where a path returns or reaches the closing brace.
	exit(s S, pos token.Pos)
}

// flowTarget is an enclosing loop, switch or select with the states that
// leave it by break and, for a loop, reach its head by continue (nil until
// one does).
type flowTarget[S flowState[S]] struct {
	label     string
	loop      bool
	brk, cont S
}

type flowWalker[S flowState[S]] struct {
	p       *Package
	rules   flowRules[S]
	targets []*flowTarget[S]
	label   string // label of the statement about to be walked
}

// walkFlow runs rules over body from the entry state s.
func walkFlow[S flowState[S]](p *Package, rules flowRules[S], body *ast.BlockStmt, s S) {
	w := &flowWalker[S]{p: p, rules: rules}
	if s = w.block(body.List, s); !s.isDead() {
		rules.exit(s, body.Rbrace)
	}
}

func (w *flowWalker[S]) block(list []ast.Stmt, s S) S {
	for _, st := range list {
		if s.isDead() {
			break
		}
		s = w.stmt(st, s)
	}
	return s
}

func (w *flowWalker[S]) stmt(stmt ast.Stmt, s S) S {
	label := w.label
	w.label = ""
	switch st := stmt.(type) {
	case *ast.LabeledStmt:
		w.label = st.Label.Name
		return w.stmt(st.Stmt, s)
	case *ast.BlockStmt:
		return w.block(st.List, s)
	case *ast.IfStmt:
		s = w.stmt(st.Init, s)
		w.rules.cond(s, st.Cond)
		els := s.clone()
		w.rules.assume(s, st.Cond, true)
		w.rules.assume(els, st.Cond, false)
		then := w.block(st.Body.List, s)
		if st.Else != nil {
			els = w.stmt(st.Else, els)
		}
		return els.join(then)
	case *ast.ForStmt:
		s = w.stmt(st.Init, s)
		return w.loop(label, s, st.Cond, st.Post, nil, st.Body, st.Cond != nil)
	case *ast.RangeStmt:
		return w.loop(label, s, nil, nil, w.rules.rangeHead(s, st), st.Body, true)
	case *ast.SwitchStmt:
		s = w.stmt(st.Init, s)
		if st.Tag != nil {
			w.rules.cond(s, st.Tag)
		}
		return w.cases(label, st.Body, s, !hasDefaultCase(st.Body))
	case *ast.TypeSwitchStmt:
		s = w.stmt(st.Init, s)
		w.rules.leaf(s, st.Assign)
		return w.cases(label, st.Body, s, !hasDefaultCase(st.Body))
	case *ast.SelectStmt:
		w.rules.selectHead(s, st)
		return w.cases(label, st.Body, s, false)
	case *ast.BranchStmt:
		// goto ends the path; fallthrough was routed by cases.
		if t := w.target(st); t != nil && st.Tok == token.BREAK {
			t.brk = t.brk.join(s)
		} else if t != nil {
			t.cont = t.cont.join(s)
		}
		s.kill()
	case *ast.ReturnStmt:
		w.rules.leaf(s, st)
		w.rules.exit(s, st.Pos())
		s.kill()
	case *ast.ExprStmt:
		w.rules.leaf(s, st)
		if isPanicCall(w.p, st.X) {
			s.kill()
		}
	case nil, *ast.EmptyStmt:
	default:
		w.rules.leaf(s, stmt)
	}
	return s
}

// target resolves a break or continue to its enclosing statement.
func (w *flowWalker[S]) target(b *ast.BranchStmt) *flowTarget[S] {
	if b.Tok != token.BREAK && b.Tok != token.CONTINUE {
		return nil
	}
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := w.targets[i]
		if (b.Label == nil || b.Label.Name == t.label) && (t.loop || b.Tok == token.BREAK) {
			return t
		}
	}
	return nil
}

func (w *flowWalker[S]) push(label string, loop bool) *flowTarget[S] {
	t := &flowTarget[S]{label: label, loop: loop}
	w.targets = append(w.targets, t)
	return t
}

// loop iterates a for or range body to a fixpoint of the head state: the
// entry joined with every path that ends an iteration or continues.
func (w *flowWalker[S]) loop(label string, head S, cond ast.Expr, post ast.Stmt, iter func(S), body *ast.BlockStmt, headExits bool) S {
	t := w.push(label, true)
	for i := 0; i < flowIterCap; i++ {
		before := head.size()
		cur := head.clone()
		if cond != nil {
			w.rules.cond(cur, cond)
		}
		if iter != nil {
			iter(cur)
		}
		cur = w.block(body.List, cur).join(t.cont)
		t.cont = *new(S)
		if post != nil && !cur.isDead() {
			cur = w.stmt(post, cur)
		}
		if head = head.join(cur); head.size() == before {
			break
		}
	}
	w.targets = w.targets[:len(w.targets)-1]
	if cond != nil {
		w.rules.cond(head, cond)
	}
	if !headExits {
		head.kill()
	}
	return head.join(t.brk)
}

// cases walks the clauses of a switch or select from s and joins their
// ends, the breaks out of them and, when noCase is set, s itself.
func (w *flowWalker[S]) cases(label string, body *ast.BlockStmt, s S, noCase bool) S {
	t := w.push(label, false)
	var out, fall S
	if noCase {
		out = s.clone()
	}
	for _, cl := range body.List {
		br := s.clone()
		var list []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.rules.cond(br, e)
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				w.rules.leaf(br, c.Comm)
			}
			list = c.Body
		}
		br = br.join(fall)
		if n := len(list); n > 0 {
			if b, ok := list[n-1].(*ast.BranchStmt); ok && b.Tok == token.FALLTHROUGH {
				fall = w.block(list[:n-1], br)
				continue
			}
		}
		fall = *new(S)
		out = out.join(w.block(list, br))
	}
	w.targets = w.targets[:len(w.targets)-1]
	return out.join(t.brk)
}

func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// isPanicCall reports whether e is a call to the panic builtin.
func isPanicCall(p *Package, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "panic"
}
