package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
)

// BlockSummary is the per-function "may block on a channel" summary the
// interprocedural lockheld-send analyzer propagates bottom-up over the call
// graph. A function blocks when its body performs a channel send, a
// blocking receive, a default-less select, or a range over a channel — or
// when it (transitively) calls a function that does.
//
// The analysis is bounded: calls through function values and interface
// methods never contribute (no finding is produced through an edge that
// cannot be statically proven), goroutine launches never block their
// caller, and sends/receives guarded by a select default are non-blocking.
type BlockSummary struct {
	// Blocks reports whether the function may block on a channel.
	Blocks bool
	// Desc names the primitive operation ("channel send", …). Set only on
	// the function that performs it directly.
	Desc string
	// Pos is the primitive operation's position (direct blockers only).
	Pos token.Pos
	// Via is the witness call edge for transitive blockers: following Via
	// chains ends at a direct blocker. Nil when the block is direct.
	Via *CGEdge
}

// ComputeBlockSummaries scans every node for direct channel blocking and
// propagates may-block bottom-up to callers until fixpoint. Iteration is
// over the graph's deterministic node order and each node's source-ordered
// edges, so witness chains (and therefore messages) are deterministic;
// recursion converges because a summary only ever flips false→true.
func ComputeBlockSummaries(g *CallGraph) map[*CGNode]*BlockSummary {
	sums := make(map[*CGNode]*BlockSummary, len(g.Nodes))
	for _, n := range g.Nodes {
		s := &BlockSummary{}
		if desc, pos, ok := directBlock(n); ok {
			s.Blocks, s.Desc, s.Pos = true, desc, pos
		}
		sums[n] = s
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			s := sums[n]
			if s.Blocks {
				continue
			}
			for _, e := range n.Out {
				if e.Kind == CallGo {
					continue // runs on its own goroutine
				}
				if cs := sums[e.Callee]; cs != nil && cs.Blocks {
					s.Blocks = true
					s.Via = e
					changed = true
					break
				}
			}
		}
	}
	return sums
}

// BlockChain renders the witness behind a blocking node: the display-name
// chain starting at n, the primitive operation's description, and its
// position. Safe to call only when the summary blocks.
func BlockChain(n *CGNode, sums map[*CGNode]*BlockSummary) (chain []string, desc string, pos token.Position) {
	for {
		chain = append(chain, n.DisplayName())
		s := sums[n]
		if s == nil || !s.Blocks {
			return chain, "unknown", token.Position{}
		}
		if s.Via == nil {
			return chain, s.Desc, n.Pkg.Fset.Position(s.Pos)
		}
		n = s.Via.Callee
	}
}

// chainSite renders a blocking site compactly for messages (base file
// name only — the diagnostic itself anchors the caller side).
func chainSite(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}

// directBlock returns a body's first channel operation that can block, in
// walk order. It runs lockheld-send's transfer functions (lockheld.go) on
// the flow walker, so only reachable operations count, a goroutine launch
// contributes only its arguments, and a select with a default guards its
// clauses. Nested function literals are separate nodes.
func directBlock(n *CGNode) (desc string, pos token.Pos, found bool) {
	blocks := func(_ *lockState, at token.Pos, op string) {
		if !found {
			desc, pos, found = op, at, true
		}
	}
	walkFlow[*lockState](n.Pkg, newLockRules(n.Pkg, blocks, nil), n.Body, newLockState())
	return desc, pos, found
}
