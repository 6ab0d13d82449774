package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the flow-sensitive dataflow IR under the lifetime analyzers
// (DESIGN.md §16). Each function body is walked by the flow walker
// (flow.go) over an abstract state mapping local variables to sets of
// *cells* — one cell per syntactic allocation/acquisition/load site — with
// per-path released, escaped, and parked facts. The walker forks and joins
// the state at branches (may-analysis: a fact on either arm survives the
// join), iterates loops to a fixpoint (cells are per-site, so the universe
// is finite), and routes break and continue to the loop's exit and head;
// the IR supplies the transfer functions, and deferred calls apply at
// every exit in LIFO order.
//
// The analysis is deliberately bounded, exactly like the call graph it sits
// on: loads from the heap produce fresh cells (no strong updates through
// containers), unknown callees neither release nor leak their arguments,
// and every rule reports only what the IR proves on some path.
// Interprocedural effects flow through PoolSummary (poolsummary.go), so
// helper wrappers like getVal/putVal need no annotation of their own.

// dfCell is one abstract memory object, identified by its creation site.
type dfCell struct {
	label    string       // identifier for messages
	pooled   *PoolDecl    // non-nil: object of a declared pool/freelist
	scratch  *ScratchDecl // non-nil: aliases a declared scratch surface
	heap     bool         // born from non-local memory (field/element load)
	acq      token.Position
	isParam  bool             // bound to a parameter or the receiver at entry
	param    int              // parameter index at entry, else -1 (receiver: -1)
	contains map[*dfCell]bool // cells stored into this one
}

func newCell(label string) *dfCell {
	return &dfCell{label: label, param: -1, contains: map[*dfCell]bool{}}
}

// escKind classifies how a cell left the function's hands.
type escKind uint8

const (
	escStored escKind = iota
	escSent
	escReturned
	escGoroutine
	escCall // stored away by a callee (summary escape)
)

func (k escKind) String() string {
	switch k {
	case escStored:
		return "stored"
	case escSent:
		return "sent on a channel"
	case escReturned:
		return "returned"
	case escGoroutine:
		return "passed to a goroutine"
	default:
		return "stored by a callee"
	}
}

// dfEscape is one recorded escape of a cell.
type dfEscape struct {
	pos  token.Position
	kind escKind
	what string // destination render for messages
}

// dfState is the abstract state at one program point.
type dfState struct {
	vars     map[types.Object][]*dfCell
	released map[*dfCell]token.Position
	escaped  map[*dfCell]*dfEscape
	acquired map[*dfCell]bool
	parked   map[*dfCell]bool // stored somewhere reachable: cannot leak
	// uarOK marks releases that are unobservable through any live binding
	// on their own path: at a join, a cell released on one arm but no
	// longer bound there (the `putBatch(batch); batch = dec` handoff) must
	// not turn a use of the OTHER arm's binding into a use-after-release.
	uarOK map[*dfCell]bool
	// relBound refines uarOK's all-or-nothing rule: for a release settled
	// at a join while still bound on its own arm, it records WHICH
	// variables bound the cell there. A later use or release through a
	// variable outside that set sits on a path that never saw the
	// release (the `if ok { put(batch); batch = dec } else { put(dec) }`
	// correlation) and must not be flagged.
	relBound map[*dfCell]map[types.Object]bool
	dead     bool // path terminated (return/branch)
}

func newDFState() *dfState {
	return &dfState{
		vars:     map[types.Object][]*dfCell{},
		released: map[*dfCell]token.Position{},
		escaped:  map[*dfCell]*dfEscape{},
		acquired: map[*dfCell]bool{},
		parked:   map[*dfCell]bool{},
		uarOK:    map[*dfCell]bool{},
		relBound: map[*dfCell]map[types.Object]bool{},
	}
}

func (s *dfState) clone() *dfState {
	c := newDFState()
	for k, v := range s.vars {
		c.vars[k] = append([]*dfCell(nil), v...)
	}
	for k, v := range s.released {
		c.released[k] = v
	}
	for k, v := range s.escaped {
		c.escaped[k] = v
	}
	for k := range s.acquired {
		c.acquired[k] = true
	}
	for k := range s.parked {
		c.parked[k] = true
	}
	for k := range s.uarOK {
		c.uarOK[k] = true
	}
	for k, set := range s.relBound {
		cp := make(map[types.Object]bool, len(set))
		for o := range set {
			cp[o] = true
		}
		c.relBound[k] = cp
	}
	c.dead = s.dead
	return c
}

// bound reports whether some variable still binds the cell.
func (s *dfState) bound(c *dfCell) bool {
	for _, cells := range s.vars {
		for _, b := range cells {
			if b == c {
				return true
			}
		}
	}
	return false
}

// settleReleases marks releases unobservable through any live binding in
// this state, so a cross-path join cannot pair them with another arm's
// binding. Called on each input state of a join.
func (s *dfState) settleReleases() {
	for c := range s.released {
		if s.uarOK[c] || s.relBound[c] != nil {
			continue // already settled at an earlier join
		}
		var set map[types.Object]bool
		for obj, cells := range s.vars {
			for _, b := range cells {
				if b == c {
					if set == nil {
						set = map[types.Object]bool{}
					}
					set[obj] = true
					break
				}
			}
		}
		if set == nil {
			s.uarOK[c] = true
		} else {
			s.relBound[c] = set
		}
	}
}

// join unions another path's state into s. Dead paths contribute nothing.
func (s *dfState) join(o *dfState) *dfState {
	if o.isDead() {
		return s
	}
	if s.isDead() {
		o = o.clone()
		o.settleReleases()
		return o
	}
	s.settleReleases()
	o.settleReleases()
	for k, v := range o.vars {
		s.vars[k] = unionCells(s.vars[k], v)
	}
	for k, v := range o.released {
		if _, ok := s.released[k]; !ok {
			s.released[k] = v
		}
	}
	for k, v := range o.escaped {
		if _, ok := s.escaped[k]; !ok {
			s.escaped[k] = v
		}
	}
	for k := range o.acquired {
		s.acquired[k] = true
	}
	for k := range o.parked {
		s.parked[k] = true
	}
	for k := range o.uarOK {
		s.uarOK[k] = true
	}
	for k, set := range o.relBound {
		if s.relBound[k] == nil {
			s.relBound[k] = map[types.Object]bool{}
		}
		for obj := range set {
			s.relBound[k][obj] = true
		}
	}
	return s
}

func (s *dfState) isDead() bool { return s == nil || s.dead }
func (s *dfState) kill()        { s.dead = true }

// size is the monotone measure for loop-fixpoint convergence: join only
// grows it, and since join(a, b) ⊇ a, equal size after a join means equal
// states.
func (s *dfState) size() int {
	n := len(s.released) + len(s.escaped) + len(s.acquired) + len(s.parked) + len(s.uarOK)
	for _, set := range s.relBound {
		n += 1 + len(set)
	}
	for _, v := range s.vars {
		n += 1 + len(v)
	}
	return n
}

func unionCells(a, b []*dfCell) []*dfCell {
	for _, c := range b {
		found := false
		for _, e := range a {
			if e == c {
				found = true
				break
			}
		}
		if !found {
			a = append(a, c)
		}
	}
	return a
}

// dfDefer is one recorded defer, with its argument cells captured at the
// defer statement (Go evaluates defer arguments eagerly).
type dfDefer struct {
	call *ast.CallExpr
	args [][]*dfCell
}

// dfWalker analyzes one CGNode body.
type dfWalker struct {
	eng      *lifetimeEngine
	node     *CGNode
	p        *Package
	sum      *PoolSummary // summary being derived (nil in the report pass)
	emit     bool         // report diagnostics (final pass only)
	sites    map[ast.Node]*dfCell
	defers   []*dfDefer
	reported map[string]bool
	paramsOf map[types.Object]int
	retPool  bool // some return handed out a pooled cell
	peek     int  // inside len/cap arguments: reads take no ownership
}

func newWalker(eng *lifetimeEngine, n *CGNode, sum *PoolSummary, emit bool) *dfWalker {
	return &dfWalker{
		eng:      eng,
		node:     n,
		p:        n.Pkg,
		sum:      sum,
		emit:     emit,
		sites:    map[ast.Node]*dfCell{},
		reported: map[string]bool{},
		paramsOf: map[types.Object]int{},
	}
}

func (w *dfWalker) analyze() {
	s := newDFState()
	sig := nodeSig(w.node)
	if r := sig.Recv(); r != nil {
		w.bindParam(s, r, -1)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		w.bindParam(s, sig.Params().At(i), i)
	}
	walkFlow[*dfState](w.p, w, w.node.Body, s)
	if w.sum != nil && w.retPool {
		w.sum.Acquires = true
	}
}

func (w *dfWalker) bindParam(s *dfState, v *types.Var, idx int) {
	c := newCell(v.Name())
	c.isParam = true
	c.param = idx
	s.vars[v] = []*dfCell{c}
	w.paramsOf[v] = idx
}

// siteCell returns the one cell for a syntactic creation site, so loop
// iterations reuse cells and the fixpoint converges.
func (w *dfWalker) siteCell(at ast.Node, label string) *dfCell {
	if c, ok := w.sites[at]; ok {
		return c
	}
	c := newCell(label)
	w.sites[at] = c
	return c
}

// revive resets a cell's per-path facts at its creation site: a loop's
// second iteration re-acquiring through the same site starts clean.
func (s *dfState) revive(c *dfCell) {
	delete(s.released, c)
	delete(s.escaped, c)
	delete(s.acquired, c)
	delete(s.parked, c)
	delete(s.uarOK, c)
	delete(s.relBound, c)
}

// diag reports one deduplicated finding. Summary passes stay silent.
func (w *dfWalker) diag(analyzer string, pos token.Pos, key, format string, args ...any) {
	if !w.emit || w.reported[key] {
		return
	}
	w.reported[key] = true
	w.eng.diags = append(w.eng.diags, Diagnostic{
		Analyzer: analyzer,
		Pos:      w.p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ---- transfer functions ----

func (w *dfWalker) leaf(s *dfState, stmt ast.Stmt) {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		w.eval(st.X, s, true)
	case *ast.AssignStmt:
		w.walkAssign(st, s)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var cells []*dfCell
					if i < len(vs.Values) {
						cells = w.eval(vs.Values[i], s, true)
					} else {
						c := w.siteCell(name, name.Name)
						s.revive(c)
						cells = []*dfCell{c}
					}
					if obj := w.p.Info.Defs[name]; obj != nil {
						s.vars[obj] = cells
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			for _, c := range w.eval(r, s, true) {
				if c.pooled != nil {
					w.retPool = true
				}
				w.escape(s, c, escReturned, r.Pos(), "")
			}
		}
	case *ast.SendStmt:
		w.eval(st.Chan, s, true)
		for _, c := range w.eval(st.Value, s, true) {
			w.escape(s, c, escSent, st.Value.Pos(), "")
		}
	case *ast.DeferStmt:
		d := &dfDefer{call: st.Call}
		w.evalReceiver(st.Call, s)
		for _, a := range st.Call.Args {
			d.args = append(d.args, w.eval(a, s, true))
		}
		w.defers = append(w.defers, d)
	case *ast.GoStmt:
		w.evalReceiver(st.Call, s)
		for _, a := range st.Call.Args {
			for _, c := range w.eval(a, s, true) {
				w.escape(s, c, escGoroutine, a.Pos(), "")
			}
		}
	case *ast.IncDecStmt:
		w.eval(st.X, s, true)
	}
}

func (w *dfWalker) cond(s *dfState, e ast.Expr)          { w.eval(e, s, true) }
func (w *dfWalker) selectHead(*dfState, *ast.SelectStmt) {}

// assume is the nil-guard refinement: on the arm where `x` is nil, an
// acquisition attributed to x never happened (`if v := pool.Get(); v !=
// nil` acquires only on the hit path).
func (w *dfWalker) assume(s *dfState, cond ast.Expr, truth bool) {
	if x, nilThen, ok := w.nilCond(cond); ok && nilThen == truth {
		w.unacquire(s, x)
	}
}

// rangeHead evaluates the range operand once; every iteration rebinds the
// key and value to per-site element cells.
func (w *dfWalker) rangeHead(s *dfState, st *ast.RangeStmt) func(*dfState) {
	xCells := w.eval(st.X, s, true)
	return func(cur *dfState) {
		w.bindRangeVar(cur, st.Key, xCells, true)
		w.bindRangeVar(cur, st.Value, xCells, false)
	}
}

func (w *dfWalker) bindRangeVar(s *dfState, e ast.Expr, xCells []*dfCell, isKey bool) {
	if e == nil {
		return
	}
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := w.p.Info.Defs[id]
	if obj == nil {
		obj = w.p.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	c := w.siteCell(e, id.Name)
	s.revive(c)
	c.heap = true
	if !isKey {
		// Element loads inherit scratch provenance from the container.
		for _, x := range xCells {
			if x.scratch != nil {
				c.scratch = x.scratch
				break
			}
		}
	}
	s.vars[obj] = []*dfCell{c}
}

// exit applies deferred calls (LIFO) and runs the leak check for one
// function exit.
func (w *dfWalker) exit(s *dfState, pos token.Pos) {
	for i := len(w.defers) - 1; i >= 0; i-- {
		w.applyCallEffects(w.defers[i].call, w.defers[i].args, s)
	}
	// Leak check: a pooled object acquired on this path that was never
	// released, stored anywhere, or returned is gone when the function
	// exits — its pool never sees it again.
	var leaks []*dfCell
	//lint:ignore maporder collected cells are sorted by sortCells before any diagnostic is emitted
	for c := range s.acquired {
		if _, rel := s.released[c]; rel {
			continue
		}
		if s.escaped[c] != nil || s.parked[c] {
			continue
		}
		leaks = append(leaks, c)
	}
	sortCells(leaks)
	for _, c := range leaks {
		w.diag("poolsafe", pos, fmt.Sprintf("leak@%d@%p", pos, c),
			"pooled %s (acquired at line %d) leaks on this exit path: never released, stored, or returned", c.label, c.acq.Line)
	}
}

func sortCells(cs []*dfCell) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cellLess(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func cellLess(a, b *dfCell) bool {
	if a.acq.Line != b.acq.Line {
		return a.acq.Line < b.acq.Line
	}
	return a.label < b.label
}

// ---- expression evaluation ----

// eval returns the cells an expression may denote, applying call effects
// and use-after-release checks along the way. topUse=false suppresses the
// use-check for the top-level read only — release endpoints report
// double-release themselves instead.
func (w *dfWalker) eval(e ast.Expr, s *dfState, topUse bool) []*dfCell {
	switch x := e.(type) {
	case *ast.Ident:
		obj := w.p.Info.Uses[x]
		if obj == nil {
			obj = w.p.Info.Defs[x]
		}
		if obj == nil {
			return nil
		}
		if _, ok := obj.(*types.Var); !ok {
			return nil
		}
		cells, bound := s.vars[obj]
		if !bound {
			// Captured outer variable or package-level variable: a fresh
			// heap-born cell per read site.
			c := w.siteCell(x, x.Name)
			s.revive(c)
			c.heap = true
			if sd := w.eng.reg.Scratch[obj]; sd != nil {
				c.scratch = sd
			}
			return []*dfCell{c}
		}
		if topUse {
			w.checkUse(s, cells, obj, x.Pos(), x.Name)
		}
		return cells
	case *ast.SelectorExpr:
		if sel := w.p.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			w.eval(x.X, s, true)
			c := w.siteCell(x, render(x))
			s.revive(c)
			c.heap = true
			// Scratch provenance comes from the field's own annotation
			// only: a pointer or slice field READ OUT of arena memory
			// points at the pointee's storage, not the arena's.
			if sd := w.eng.reg.Scratch[sel.Obj()]; sd != nil {
				c.scratch = sd
			}
			return []*dfCell{c}
		}
		// Package-qualified identifier.
		if obj := w.p.Info.Uses[x.Sel]; obj != nil {
			if _, ok := obj.(*types.Var); ok {
				c := w.siteCell(x, render(x))
				s.revive(c)
				c.heap = true
				return []*dfCell{c}
			}
		}
		return nil
	case *ast.IndexExpr:
		// Generic instantiation F[T] parses as IndexExpr too; only real
		// container loads produce cells.
		if tv, ok := w.p.Info.Types[x.X]; !ok || tv.IsType() || tv.Type == nil {
			return nil
		} else if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
			return nil
		}
		base := w.eval(x.X, s, true)
		w.eval(x.Index, s, true)
		c := w.siteCell(x, render(x))
		s.revive(c)
		c.heap = true
		if pd := w.poolOf(x.X); pd != nil && pd.Kind == roleFreelist && w.peek == 0 {
			// Freelist element read: the pop half of the pop+truncate idiom.
			w.acquire(s, c, pd, x.Pos())
		}
		for _, b := range base {
			if b.scratch != nil {
				c.scratch = b.scratch
				break
			}
		}
		return []*dfCell{c}
	case *ast.SliceExpr:
		cells := w.eval(x.X, s, topUse)
		for _, idx := range []ast.Expr{x.Low, x.High, x.Max} {
			if idx != nil {
				w.eval(idx, s, true)
			}
		}
		return cells
	case *ast.StarExpr:
		// Pointer and pointee are one object for lifetime purposes.
		return w.eval(x.X, s, topUse)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return w.eval(x.X, s, topUse)
		}
		if x.Op == token.ARROW {
			w.eval(x.X, s, true)
			c := w.siteCell(x, "received value")
			s.revive(c)
			c.heap = true
			return []*dfCell{c}
		}
		return w.eval(x.X, s, true)
	case *ast.BinaryExpr:
		w.eval(x.X, s, true)
		w.eval(x.Y, s, true)
		return nil
	case *ast.ParenExpr:
		return w.eval(x.X, s, topUse)
	case *ast.CallExpr:
		return w.evalCall(x, s)
	case *ast.TypeAssertExpr:
		return w.eval(x.X, s, topUse)
	case *ast.CompositeLit:
		c := w.siteCell(x, render(x.Type))
		s.revive(c)
		for _, el := range x.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			for _, ec := range w.eval(v, s, true) {
				c.contains[ec] = true
				if ec.scratch != nil && c.scratch == nil {
					c.scratch = ec.scratch
				}
			}
		}
		return []*dfCell{c}
	case *ast.FuncLit:
		// Interior is a separate analysis unit; the closure value itself is
		// a fresh cell.
		c := w.siteCell(x, "closure")
		s.revive(c)
		return []*dfCell{c}
	}
	return nil
}

// exprObj resolves a plain identifier expression to its object, for
// correlating uses and releases with the variable they go through.
func (w *dfWalker) exprObj(e ast.Expr) types.Object {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if o := w.p.Info.Uses[id]; o != nil {
		return o
	}
	return w.p.Info.Defs[id]
}

// nilCond decomposes a `x == nil` / `x != nil` condition. nilThen reports
// that the THEN arm is the one where x is nil (the == form).
func (w *dfWalker) nilCond(cond ast.Expr) (x ast.Expr, nilThen bool, ok bool) {
	be, isBin := unparen(cond).(*ast.BinaryExpr)
	if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false, false
	}
	isNil := func(e ast.Expr) bool {
		tv, found := w.p.Info.Types[e]
		return found && tv.IsNil()
	}
	switch {
	case isNil(be.Y):
		x = be.X
	case isNil(be.X):
		x = be.Y
	default:
		return nil, false, false
	}
	return x, be.Op == token.EQL, true
}

// unacquire forgets acquisitions attributed to x's current cells: used on
// the nil arm of a nil-guarded pool fetch, where the miss path never took
// an object out of the pool.
func (w *dfWalker) unacquire(s *dfState, x ast.Expr) {
	id, isID := unparen(x).(*ast.Ident)
	if !isID {
		return
	}
	obj := w.p.Info.Uses[id]
	if obj == nil {
		obj = w.p.Info.Defs[id]
	}
	if obj == nil {
		return
	}
	for _, c := range s.vars[obj] {
		delete(s.acquired, c)
	}
}

// checkUse reports use-after-release for every released cell in the set.
// Releases settled as unobservable on their own path (uarOK) are skipped:
// only a path that released the cell and kept it bound can misuse it.
func (w *dfWalker) checkUse(s *dfState, cells []*dfCell, via types.Object, pos token.Pos, what string) {
	for _, c := range cells {
		rel, ok := s.released[c]
		if !ok || s.uarOK[c] {
			continue
		}
		if rb := s.relBound[c]; rb != nil && (via == nil || !rb[via]) {
			// The release was settled at a join while bound to OTHER
			// variables: the path binding `via` to this cell never
			// released it.
			continue
		}
		w.diag("poolsafe", pos, fmt.Sprintf("use@%d@%p", pos, c),
			"pooled %s used after release (released at line %d)", what, rel.Line)
	}
}

// acquire marks a cell as freshly taken from a pool on this path.
func (w *dfWalker) acquire(s *dfState, c *dfCell, pd *PoolDecl, pos token.Pos) {
	c.pooled = pd
	c.acq = w.p.Fset.Position(pos)
	s.acquired[c] = true
}

// release marks cells as returned to their pool, reporting double-release
// and release-after-escape. Releasing twice at the same site (a loop
// re-walk, or a summary coinciding with an explicit annotation) is one
// event, not a double release.
func (w *dfWalker) release(s *dfState, cells []*dfCell, pos token.Pos, via types.Object) {
	position := w.p.Fset.Position(pos)
	for _, c := range cells {
		if first, ok := s.released[c]; ok {
			if first == position {
				continue
			}
			// A release settled as unobservable on its own path (the other
			// arm's handoff) is not this path's first release; likewise a
			// release settled while bound only to OTHER variables sits on
			// a disjoint path from this one.
			rb := s.relBound[c]
			if !s.uarOK[c] && (rb == nil || (via != nil && rb[via])) {
				w.diag("poolsafe", pos, fmt.Sprintf("dbl@%d@%p", pos, c),
					"pooled %s released twice (first released at line %d)", c.label, first.Line)
			}
			continue
		}
		if esc := s.escaped[c]; esc != nil {
			what := esc.kind.String()
			if esc.kind == escStored && esc.what != "" {
				what = "stored into " + esc.what
			}
			w.diag("aliasescape", pos, fmt.Sprintf("esc@%d@%p", pos, c),
				"pooled %s released after an alias escaped at line %d (%s)", c.label, esc.pos.Line, what)
		}
		s.released[c] = position
		if w.sum != nil && c.param >= 0 {
			w.sum.setReleases(c.param)
		}
	}
}

// escape records an explicit escape, propagating into contained cells.
// Scratch cells escaping is the scratchlocal invariant.
func (w *dfWalker) escape(s *dfState, c *dfCell, kind escKind, pos token.Pos, dst string) {
	w.escapeRec(s, c, kind, pos, dst, 0)
}

func (w *dfWalker) escapeRec(s *dfState, c *dfCell, kind escKind, pos token.Pos, dst string, depth int) {
	if depth > 4 {
		return
	}
	if _, ok := s.escaped[c]; !ok {
		s.escaped[c] = &dfEscape{pos: w.p.Fset.Position(pos), kind: kind, what: dst}
	}
	s.parked[c] = true
	if c.scratch != nil {
		w.scratchEscape(s, c, kind, pos, dst)
	}
	if w.sum != nil && c.param >= 0 && kind != escReturned {
		w.sum.setEscapes(c.param)
	}
	for m := range c.contains {
		w.escapeRec(s, m, kind, pos, dst, depth+1)
	}
}

// scratchEscape reports a scratch alias leaving the borrowing call.
// Returns are flagged only from exported functions: an unexported helper
// handing its owner's scratch back to a same-package caller is the normal
// borrow pattern (the caller's own exits are still checked).
func (w *dfWalker) scratchEscape(s *dfState, c *dfCell, kind escKind, pos token.Pos, dst string) {
	switch kind {
	case escSent:
		w.diag("scratchlocal", pos, fmt.Sprintf("ssent@%d@%p", pos, c),
			"scratch %s sent on a channel, outliving the borrowing call", c.scratch.Name)
	case escStored:
		w.diag("scratchlocal", pos, fmt.Sprintf("sstore@%d@%p", pos, c),
			"scratch %s stored into %s, outliving the borrowing call", c.scratch.Name, dst)
	case escGoroutine:
		w.diag("scratchlocal", pos, fmt.Sprintf("sgo@%d@%p", pos, c),
			"scratch %s passed to a goroutine, outliving the borrowing call", c.scratch.Name)
	case escReturned:
		if w.node.Fn != nil && w.node.Fn.Exported() {
			w.diag("scratchlocal", pos, fmt.Sprintf("sret@%d@%p", pos, c),
				"scratch %s returned from exported %s; callers retain the scratch backing", c.scratch.Name, w.node.DisplayName())
		}
		if w.sum != nil && w.sum.ScratchRet == nil {
			w.sum.ScratchRet = c.scratch
		}
	}
}

// park marks cells as stored somewhere reachable: they cannot be reported
// as leaked.
func (w *dfWalker) park(s *dfState, cells []*dfCell) {
	for _, c := range cells {
		s.parked[c] = true
	}
}

// ---- assignment ----

func (w *dfWalker) walkAssign(st *ast.AssignStmt, s *dfState) {
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		// Compound assignment (+=, |=, …): value updates, no rebinding.
		for _, l := range st.Lhs {
			w.eval(l, s, true)
		}
		for _, r := range st.Rhs {
			w.eval(r, s, true)
		}
		return
	}
	var rhs [][]*dfCell
	for _, r := range st.Rhs {
		rhs = append(rhs, w.eval(r, s, true))
	}
	if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
		// v, ok := … / multi-result call: the tracked object flows to the
		// first variable; the rest get fresh cells.
		for i, l := range st.Lhs {
			if i == 0 {
				w.assignTo(l, rhs[0], s)
				continue
			}
			c := w.siteCell(l, render(l))
			s.revive(c)
			w.assignTo(l, []*dfCell{c}, s)
		}
		return
	}
	for i, l := range st.Lhs {
		var cells []*dfCell
		if i < len(rhs) {
			cells = rhs[i]
		}
		w.assignTo(l, cells, s)
	}
}

func (w *dfWalker) assignTo(lhs ast.Expr, cells []*dfCell, s *dfState) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := w.p.Info.Defs[l]
		if obj == nil {
			obj = w.p.Info.Uses[l]
		}
		if obj == nil {
			return
		}
		if w.isLocal(obj) {
			s.vars[obj] = append([]*dfCell(nil), cells...)
			for _, c := range cells {
				if c.label == "" {
					c.label = l.Name
				}
			}
			return
		}
		// Package-level or captured variable: the store is an escape.
		for _, c := range cells {
			w.escape(s, c, escStored, l.Pos(), l.Name)
		}
	case *ast.SelectorExpr:
		base := w.eval(l.X, s, true)
		w.storeInto(l, base, cells, s, fieldScratch(w.p, w.eng.reg, l))
	case *ast.IndexExpr:
		base := w.eval(l.X, s, true)
		w.eval(l.Index, s, true)
		w.storeInto(l, base, cells, s, nil)
	case *ast.StarExpr:
		base := w.eval(l.X, s, true)
		w.storeInto(l, base, cells, s, nil)
	case *ast.ParenExpr:
		w.assignTo(l.X, cells, s)
	}
}

// fieldScratch returns the scratch declaration of a selector's field, if
// annotated.
func fieldScratch(p *Package, reg *PoolRegistry, sel *ast.SelectorExpr) *ScratchDecl {
	s := p.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	return reg.Scratch[s.Obj()]
}

// storeInto applies the effects of storing cells through a selector, index,
// or pointer target.
func (w *dfWalker) storeInto(lhs ast.Expr, base, cells []*dfCell, s *dfState, dstScratch *ScratchDecl) {
	intoScratch := dstScratch != nil
	if !intoScratch {
		for _, b := range base {
			if b.scratch != nil {
				intoScratch = true
				break
			}
		}
	}
	nonLocalBase := false
	for _, b := range base {
		if b.heap || b.isParam || b.pooled != nil {
			nonLocalBase = true
			break
		}
	}
	for _, c := range cells {
		switch {
		case intoScratch:
			// Parking in a scratch arena keeps the object reachable for the
			// rest of the call and nothing longer: not an escape, but it
			// must not be reported as a leak either.
			s.parked[c] = true
			for _, b := range base {
				b.contains[c] = true
			}
		case nonLocalBase:
			w.escape(s, c, escStored, lhs.Pos(), render(lhs))
		default:
			// Store into a purely local value: containment only.
			s.parked[c] = true
			for _, b := range base {
				b.contains[c] = true
			}
		}
	}
}

// isLocal reports whether obj is a parameter or declared inside this
// node's body.
func (w *dfWalker) isLocal(obj types.Object) bool {
	if _, isParam := w.paramsOf[obj]; isParam {
		return true
	}
	if obj.Pos() == token.NoPos {
		return false
	}
	return w.node.Body.Pos() <= obj.Pos() && obj.Pos() <= w.node.Body.End()
}

// ---- calls ----

// evalReceiver evaluates a method call's receiver expression for use
// tracking (the receiver is part of Fun, not Args).
func (w *dfWalker) evalReceiver(call *ast.CallExpr, s *dfState) []*dfCell {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if ms := w.p.Info.Selections[sel]; ms != nil && ms.Kind() == types.MethodVal {
		return w.eval(sel.X, s, true)
	}
	return nil
}

func (w *dfWalker) evalCall(call *ast.CallExpr, s *dfState) []*dfCell {
	// Conversions propagate their operand's cells (a conversion never
	// copies a backing array).
	if tv, ok := w.p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return w.eval(call.Args[0], s, true)
		}
		return nil
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := w.p.Info.Uses[id].(*types.Builtin); isBuiltin {
			return w.evalBuiltin(id.Name, call, s)
		}
	}
	// sync.Pool endpoints on declared pools.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if pd := w.poolOf(sel.X); pd != nil && pd.Kind == roleSyncPool {
			switch sel.Sel.Name {
			case "Get":
				c := w.siteCell(call, "value from "+pd.Name)
				s.revive(c)
				w.acquire(s, c, pd, call.Pos())
				return []*dfCell{c}
			case "Put":
				if len(call.Args) == 1 {
					cells := w.eval(call.Args[0], s, false)
					w.release(s, cells, call.Pos(), w.exprObj(call.Args[0]))
				}
				return nil
			}
		}
	}
	w.evalReceiver(call, s)
	var args [][]*dfCell
	for i, a := range call.Args {
		topUse := true
		if w.releasesArg(call, i) {
			topUse = false // the release path reports double-release itself
		}
		args = append(args, w.eval(a, s, topUse))
	}
	return w.applyCallEffects(call, args, s)
}

// releasesArg reports whether the called function releases argument i, via
// annotation or derived summary.
func (w *dfWalker) releasesArg(call *ast.CallExpr, i int) bool {
	fn := w.calledFunc(call)
	if fn != nil && w.eng.reg.Releases[fn.Origin()] && i == 0 {
		return true
	}
	if w.eng.sums == nil {
		return false
	}
	if callee, unknown := w.eng.m.Graph().resolveCall(w.p, call); !unknown && callee != nil {
		if sum := w.eng.sums[callee]; sum != nil {
			pi := i
			if pi >= len(sum.Releases) && len(sum.Releases) > 0 {
				pi = len(sum.Releases) - 1
			}
			return pi >= 0 && pi < len(sum.Releases) && sum.Releases[pi]
		}
	}
	return false
}

// applyCallEffects resolves the callee and applies release/escape/acquire
// effects to already-evaluated argument cells. Used both at call sites and
// when deferred calls run at function exit.
func (w *dfWalker) applyCallEffects(call *ast.CallExpr, args [][]*dfCell, s *dfState) []*dfCell {
	fn := w.calledFunc(call)
	if fn != nil && w.eng.reg.Releases[fn.Origin()] && len(args) > 0 {
		var via types.Object
		if len(call.Args) > 0 {
			via = w.exprObj(call.Args[0])
		}
		w.release(s, args[0], call.Pos(), via)
	}
	callee, unknown := w.eng.m.Graph().resolveCall(w.p, call)
	if unknown || callee == nil {
		// Unknown or out-of-load callee: bounded analysis — arguments are
		// parked (the callee may retain them) but never released, escaped,
		// or leaked through an edge that cannot be proven.
		for _, cells := range args {
			w.park(s, cells)
		}
		return w.callResult(call, s, nil)
	}
	var sum *PoolSummary
	if w.eng.sums != nil {
		sum = w.eng.sums[callee]
	}
	if sum != nil {
		for i, cells := range args {
			pi := i
			if pi >= len(sum.Releases) && len(sum.Releases) > 0 {
				pi = len(sum.Releases) - 1 // variadic tail
			}
			if pi >= 0 && pi < len(sum.Releases) && sum.Releases[pi] {
				var via types.Object
				if i < len(call.Args) {
					via = w.exprObj(call.Args[i])
				}
				w.release(s, cells, call.Pos(), via)
			}
			if pi >= 0 && pi < len(sum.Escapes) && sum.Escapes[pi] {
				for _, c := range cells {
					w.escapeRec(s, c, escCall, call.Pos(), callee.DisplayName(), 0)
				}
			}
		}
	}
	for _, cells := range args {
		w.park(s, cells)
	}
	return w.callResult(call, s, sum)
}

// callResult builds the result cells of a call.
func (w *dfWalker) callResult(call *ast.CallExpr, s *dfState, sum *PoolSummary) []*dfCell {
	c := w.siteCell(call, "result of "+render(call.Fun))
	s.revive(c)
	c.heap = true
	if fn := w.calledFunc(call); fn != nil && w.eng.reg.Acquires[fn.Origin()] {
		w.acquire(s, c, &PoolDecl{Name: fn.Name(), Kind: roleFreelist}, call.Pos())
		c.label = "value from " + fn.Name()
	}
	if sum != nil {
		if sum.Acquires && c.pooled == nil {
			w.acquire(s, c, &PoolDecl{Name: render(call.Fun), Kind: roleFreelist}, call.Pos())
			c.label = "value from " + render(call.Fun)
		}
		if sum.ScratchRet != nil {
			c.scratch = sum.ScratchRet
		}
	}
	return []*dfCell{c}
}

// calledFunc returns the static *types.Func a call invokes, if any.
func (w *dfWalker) calledFunc(call *ast.CallExpr) *types.Func {
	return staticFunc(w.p, call)
}

func (w *dfWalker) evalBuiltin(name string, call *ast.CallExpr, s *dfState) []*dfCell {
	switch name {
	case "append":
		if len(call.Args) == 0 {
			return nil
		}
		dst := w.eval(call.Args[0], s, true)
		if pd := w.poolOf(call.Args[0]); pd != nil && pd.Kind == roleFreelist {
			// append(freelist, x…) is the push half of the freelist
			// protocol: x is released back to the pool.
			for _, a := range call.Args[1:] {
				cells := w.eval(a, s, false)
				w.release(s, cells, call.Pos(), w.exprObj(a))
			}
			return dst
		}
		// Appending into a scratch container parks (the arena owns it for
		// the rest of the call); appending into non-local memory — live
		// state, an emission buffer reachable from a parameter — escapes.
		dstScratch := false
		dstNonLocal := false
		for _, d := range dst {
			if d.scratch != nil {
				dstScratch = true
			}
			if d.heap || d.isParam || d.pooled != nil {
				dstNonLocal = true
			}
		}
		for _, a := range call.Args[1:] {
			for _, c := range w.eval(a, s, true) {
				if !dstScratch && dstNonLocal {
					w.escape(s, c, escStored, a.Pos(), render(call.Args[0]))
					continue
				}
				for _, d := range dst {
					d.contains[c] = true
					if c.scratch != nil && d.scratch == nil {
						d.scratch = c.scratch
					}
				}
				s.parked[c] = true
			}
		}
		return dst
	case "make", "new":
		c := w.siteCell(call, render(call))
		s.revive(c)
		return []*dfCell{c}
	case "len", "cap":
		// Capacity peeks read container metadata without taking ownership:
		// a freelist element inspected under len/cap is not acquired.
		w.peek++
		for _, a := range call.Args {
			w.eval(a, s, true)
		}
		w.peek--
		return nil
	}
	for _, a := range call.Args {
		w.eval(a, s, true)
	}
	return nil
}

// poolOf resolves an expression to a declared pool/freelist: a bare
// identifier (package-level var) or a field selector.
func (w *dfWalker) poolOf(e ast.Expr) *PoolDecl {
	return poolOfExpr(w.p, w.eng.reg, e)
}

// render is the compact source render used in messages.
func render(e ast.Expr) string {
	return types.ExprString(e)
}
