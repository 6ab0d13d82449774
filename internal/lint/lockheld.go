package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewLockHeldSend builds the lock-discipline analyzer: it flags channel
// sends, blocking receives, blocking selects — and, interprocedurally,
// calls to functions whose BlockSummary says they may block — performed
// while a sync.Mutex or sync.RWMutex is held. In a bounded-channel engine
// this is the classic deadlock shape: the send backpressures, the lock
// never releases, and every goroutine needing the lock wedges behind it
// (cf. STRETCH's shared-window lock discipline).
//
// The scan runs on the flow walker (flow.go) with a may-held lock set per
// path: a lock held on any path reaching an operation is reported there.
// So a path that returns contributes nothing past its branch, an unlock on
// every path ends the held region, a lock taken on one branch, carried
// into the next iteration, or carried out of the loop by break is still
// held, and a select's clauses are covered by the select-head check.
//
// defer mu.Unlock() keeps the lock held to the end of the enclosing body,
// including past early returns in later branches. A deferred call that may
// block is flagged when a deferred unlock is already pending: deferred
// calls run LIFO, so the blocker would run before the unlock.
//
// Function literals are analyzed independently with an empty lock state
// (they run on their own schedule); calls with no static callee are
// treated as non-blocking (bounded analysis).
func NewLockHeldSend() *Analyzer {
	a := &Analyzer{
		Name: "lockheld-send",
		Doc:  "flags channel ops and calls to may-block functions while a sync.Mutex/RWMutex is held",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		g := m.Graph()
		sums := m.BlockSummaries()
		var diags []Diagnostic
		for _, n := range g.Nodes {
			reported := map[token.Pos]bool{}
			report := func(pos token.Pos, chain []string, format string, args ...any) {
				if !reported[pos] { // a loop's later iterations revisit the site
					reported[pos] = true
					d := a.Diag(n.Pkg, pos, format, args...)
					d.Chain = chain
					diags = append(diags, d)
				}
			}
			blocks := func(s *lockState, pos token.Pos, op string) {
				if lock := s.anyHeld(); lock != "" {
					report(pos, nil, lockHeldMsg[op], lock)
				}
			}
			calls := func(s *lockState, call *ast.CallExpr, deferred bool) {
				lock := s.anyHeld()
				if deferred {
					lock = s.anyDeferred()
				}
				if lock == "" {
					return
				}
				callee, _ := g.resolveCall(n.Pkg, call)
				if callee == nil || !sums[callee].Blocks {
					return // unknown or external callee: bounded, no finding
				}
				chain, desc, site := BlockChain(callee, sums)
				witness := fmt.Sprintf("%s; %s at %s", strings.Join(chain, " → "), desc, chainSite(site))
				if deferred {
					report(call.Pos(), chain, "deferred call to %s runs before the deferred %s.Unlock and may block (%s); unlock explicitly before deferring it",
						callee.DisplayName(), lock, witness)
				} else {
					report(call.Pos(), chain, "call to %s while %s is held may block (%s) and can deadlock the engine; release the lock first",
						callee.DisplayName(), lock, witness)
				}
			}
			walkFlow[*lockState](n.Pkg, newLockRules(n.Pkg, blocks, calls), n.Body, newLockState())
		}
		return diags
	}
	return a
}

// lockHeldMsg words a blocking channel operation (by its BlockSummary
// description) found under a held lock.
var lockHeldMsg = map[string]string{
	"channel send":           "channel send while %s is held can deadlock the engine; release the lock first",
	"channel receive":        "blocking channel receive while %s is held can deadlock the engine; release the lock first",
	"select with no default": "select with no default blocks while %s is held; release the lock first",
	"range over channel":     "range over channel while %s is held blocks between receives; release the lock first",
}

// lockState is one path's lock state.
type lockState struct {
	held  map[string]token.Pos // lock expr → acquisition position
	defUn map[string]bool      // locks with a pending deferred unlock
	dead  bool
}

func newLockState() *lockState {
	return &lockState{held: map[string]token.Pos{}, defUn: map[string]bool{}}
}

func (s *lockState) clone() *lockState {
	c := newLockState()
	c.dead = s.dead
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.defUn {
		c.defUn[k] = true
	}
	return c
}

// join is may-held: a lock held on either path stays held.
func (s *lockState) join(o *lockState) *lockState {
	if o.isDead() {
		return s
	}
	if s.isDead() {
		return o.clone()
	}
	for k, v := range o.held {
		if _, ok := s.held[k]; !ok {
			s.held[k] = v
		}
	}
	for k := range o.defUn {
		s.defUn[k] = true
	}
	return s
}

func (s *lockState) size() int    { return len(s.held) + len(s.defUn) }
func (s *lockState) isDead() bool { return s == nil || s.dead }
func (s *lockState) kill()        { s.dead = true }

// anyHeld returns the render of one held lock ("" when none); ties break
// lexicographically so messages are deterministic.
func (s *lockState) anyHeld() string { return firstKey(s.held) }

// anyDeferred returns one lock with a pending deferred unlock
// (deterministic).
func (s *lockState) anyDeferred() string { return firstKey(s.defUn) }

func firstKey[V any](m map[string]V) string {
	first := ""
	for k := range m {
		if first == "" || k < first {
			first = k
		}
	}
	return first
}

// lockRules are the transfer functions shared by lockheld-send and the
// direct-blocking scan behind BlockSummary: both walk a body for the
// channel operations that can block, tracking the locks held at each.
type lockRules struct {
	pkg   *Package
	comms map[ast.Stmt]bool // select clause communications: covered by the select head
	// blocks sees every channel operation that can block, named as in
	// BlockSummary.Desc; calls, if set, sees every other call, and every
	// deferred call when it is made.
	blocks func(s *lockState, pos token.Pos, op string)
	calls  func(s *lockState, call *ast.CallExpr, deferred bool)
}

func newLockRules(p *Package, blocks func(*lockState, token.Pos, string), calls func(*lockState, *ast.CallExpr, bool)) *lockRules {
	return &lockRules{pkg: p, comms: map[ast.Stmt]bool{}, blocks: blocks, calls: calls}
}

// syncLockCall classifies a call as a sync Lock/Unlock method; it returns
// the rendered receiver and the method name, or ok=false. RLock/RUnlock
// (sync.RWMutex read locks) count: a read-locked send still deadlocks
// against any writer waiting behind it.
func syncLockCall(p *Package, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	obj := p.Info.Uses[sel.Sel]
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), fn.Name(), true
	}
	return "", "", false
}

func (r *lockRules) leaf(s *lockState, st ast.Stmt) {
	if r.comms[st] {
		return
	}
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if recv, method, ok := syncLockCall(r.pkg, call); ok {
				switch method {
				case "Lock", "RLock":
					s.held[recv] = call.Pos()
				case "Unlock", "RUnlock":
					delete(s.held, recv)
					delete(s.defUn, recv)
				}
				return
			}
		}
	case *ast.DeferStmt:
		if recv, method, ok := syncLockCall(r.pkg, st.Call); ok {
			if method == "Unlock" || method == "RUnlock" {
				// defer x.Unlock() holds the lock to the end of the
				// function: the held entry stays, and later deferred
				// blocking calls are now dangerous (LIFO order).
				s.defUn[recv] = true
			}
			return
		}
		r.args(s, st.Call)
		if r.calls != nil {
			r.calls(s, st.Call, true)
		}
		return
	case *ast.GoStmt:
		// The goroutine body runs later without our locks; arguments are
		// evaluated now.
		r.args(s, st.Call)
		return
	case *ast.SendStmt:
		r.blocks(s, st.Arrow, "channel send")
	}
	r.expr(s, st)
}

func (r *lockRules) args(s *lockState, call *ast.CallExpr) {
	for _, arg := range call.Args {
		r.expr(s, arg)
	}
}

func (r *lockRules) cond(s *lockState, e ast.Expr)     { r.expr(s, e) }
func (r *lockRules) assume(*lockState, ast.Expr, bool) {}
func (r *lockRules) exit(*lockState, token.Pos)        {}

// rangeHead makes a range over a channel block at the top of every
// iteration: each one waits for the next receive.
func (r *lockRules) rangeHead(s *lockState, st *ast.RangeStmt) func(*lockState) {
	r.expr(s, st.X)
	if t := r.pkg.Info.Types[st.X].Type; t != nil {
		if _, isChan := t.Underlying().(*types.Chan); isChan {
			return func(s *lockState) { r.blocks(s, st.For, "range over channel") }
		}
	}
	return nil
}

// selectHead makes a select with no default block; the communications of
// every select are then exempt from the per-operation checks.
func (r *lockRules) selectHead(s *lockState, st *ast.SelectStmt) {
	hasDefault := false
	for _, c := range st.Body.List {
		if cc := c.(*ast.CommClause); cc.Comm == nil {
			hasDefault = true
		} else {
			r.comms[cc.Comm] = true
		}
	}
	if !hasDefault {
		r.blocks(s, st.Select, "select with no default")
	}
}

// expr visits the receives and calls inside an expression or statement;
// nested function literals are opaque (they run with their own lock
// state).
func (r *lockRules) expr(s *lockState, e ast.Node) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				r.blocks(s, n.OpPos, "channel receive")
			}
		case *ast.CallExpr:
			if r.calls != nil {
				r.calls(s, n, false)
			}
		}
		return true
	})
}

// forEachFunc visits the body of every function and function literal in
// the package, each exactly once (used by the per-package analyzers).
func forEachFunc(p *Package, fn func(body *ast.BlockStmt)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
			case *ast.FuncLit:
				fn(n.Body)
			}
			return true
		})
	}
}
