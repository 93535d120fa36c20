// Package cfg builds per-function intraprocedural control-flow graphs
// from go/ast, with no dependency beyond the standard library — the
// structural layer beneath the concurrency-lifecycle analyzers
// (golifecycle, bodyclose), the same way go/types underpins the
// syntax-level ones. A companion generic dataflow solver (flow.go)
// computes per-block reaching facts over a Graph.
//
// The builder decomposes compound statements: an if/for/switch
// condition becomes the last node of its block with the true edge at
// Succs[0] and the false edge at Succs[1]; each select communication
// clause becomes its own block hanging off the select header; returns
// edge to the synthetic Exit block. Two statements are emitted as
// opaque "header" nodes whose bodies live in other blocks — RangeStmt
// and SelectStmt — so analyzers must walk block nodes with Inspect,
// which prunes those bodies (and nested function literals, which are
// separate functions with their own graphs).
package cfg

import (
	"go/ast"
	"go/token"
)

// A Graph is the control-flow graph of one function body. Entry has no
// predecessors; every return (and the implicit fall-off-the-end
// return) edges to Exit. Blocks unreachable from Entry — code after an
// unconditional return, clauses of an empty select — stay in Blocks
// but report Reachable() false and receive no dataflow facts.
type Graph struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block

	reach []bool
}

// A Block is a straight-line run of AST nodes: simple statements,
// decomposed condition expressions, and header nodes (RangeStmt,
// SelectStmt). Facts flow through Nodes in order, then out along
// Succs.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block

	// Cond, when non-nil, is the block's final node and a two-way
	// branch condition: Succs[0] is taken when Cond is true, Succs[1]
	// when it is false. Blocks with other fan-out (switch dispatch,
	// select arms) leave Cond nil.
	Cond ast.Expr
}

// Reachable reports whether b can execute, i.e. is reachable from
// Entry.
func (g *Graph) Reachable(b *Block) bool {
	return b.Index < len(g.reach) && g.reach[b.Index]
}

// Options tunes graph construction.
type Options struct {
	// NoReturn reports whether a call terminates the function (or the
	// process) without returning control, like os.Exit or log.Fatalf.
	// Calls to the panic builtin are always treated as no-return.
	NoReturn func(*ast.CallExpr) bool
}

// New builds the graph for one function body.
func New(body *ast.BlockStmt, opts Options) *Graph {
	b := &builder{
		g:      &Graph{},
		opts:   opts,
		labels: make(map[string]*Block),
	}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.stmtList(body.List)
	b.edge(b.g.Exit)
	b.g.computeReach()
	return b.g
}

// target is one enclosing breakable/continuable construct.
type target struct {
	label string
	brk   *Block
	cont  *Block // nil for switch and select
}

type builder struct {
	g       *Graph
	cur     *Block
	opts    Options
	targets []target
	labels  map[string]*Block // label name -> block starting the labeled statement
	fallTo  *Block            // fallthrough destination inside a switch clause
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }
func (b *builder) edge(to *Block) { b.cur.Succs = append(b.cur.Succs, to) }
func (b *builder) dead()          { b.cur = b.newBlock() } // fresh block with no predecessors
func (b *builder) push(t target)  { b.targets = append(b.targets, t) }
func (b *builder) pop()           { b.targets = b.targets[:len(b.targets)-1] }
func (b *builder) stmtList(l []ast.Stmt) {
	for _, s := range l {
		b.stmt(s, "")
	}
}

func (b *builder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *builder) noReturn(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	return b.opts.NoReturn != nil && b.opts.NoReturn(call)
}

// stmt appends s to the graph. label is the pending label when s is
// the statement of a LabeledStmt, consumed by loops and switches for
// labeled break/continue.
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.edge(lb)
		b.cur = lb
		b.stmt(s.Stmt, s.Label.Name)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		b.switchStmt(s, label)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.g.Exit)
		b.dead()
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && b.noReturn(call) {
			b.dead()
		}
	default:
		// Assign, Decl, Send, IncDec, Go, Defer, Empty: straight-line.
		b.add(s)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init, "")
	}
	b.add(s.Cond)
	cond := b.cur
	cond.Cond = s.Cond
	then := b.newBlock()
	cond.Succs = append(cond.Succs, then) // true edge
	done := b.newBlock()
	b.cur = then
	b.stmt(s.Body, "")
	b.edge(done)
	if s.Else != nil {
		els := b.newBlock()
		cond.Succs = append(cond.Succs, els) // false edge
		b.cur = els
		b.stmt(s.Else, "")
		b.edge(done)
	} else {
		cond.Succs = append(cond.Succs, done) // false edge
	}
	b.cur = done
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init, "")
	}
	head := b.newBlock()
	b.edge(head)
	b.cur = head
	body := b.newBlock()
	done := b.newBlock()
	if s.Cond != nil {
		b.add(s.Cond)
		head.Cond = s.Cond
		head.Succs = append(head.Succs, body, done)
	} else {
		head.Succs = append(head.Succs, body) // done reachable only via break
	}
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		cont = post
	}
	b.push(target{label: label, brk: done, cont: cont})
	b.cur = body
	b.stmt(s.Body, "")
	b.pop()
	b.edge(cont)
	if post != nil {
		b.cur = post
		b.stmt(s.Post, "")
		b.edge(head)
	}
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock()
	b.edge(head)
	b.cur = head
	b.add(s) // header node: the loop body lives in its own blocks
	body := b.newBlock()
	done := b.newBlock()
	head.Succs = append(head.Succs, body, done)
	b.push(target{label: label, brk: done, cont: head})
	b.cur = body
	b.stmt(s.Body, "")
	b.pop()
	b.edge(head)
	b.cur = done
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init, "")
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.caseClauses(s.Body, label, true)
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init, "")
	}
	b.add(s.Assign)
	b.caseClauses(s.Body, label, false)
}

// caseClauses wires the shared case-dispatch shape of value and type
// switches: the current block fans out to one block per clause (plus
// fall-out to done when no default exists).
func (b *builder) caseClauses(body *ast.BlockStmt, label string, valueSwitch bool) {
	dispatch := b.cur
	done := b.newBlock()
	var clauses []*ast.CaseClause
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blks[i] = b.newBlock()
		dispatch.Succs = append(dispatch.Succs, blks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		dispatch.Succs = append(dispatch.Succs, done)
	}
	savedFall := b.fallTo
	b.push(target{label: label, brk: done})
	for i, cc := range clauses {
		b.cur = blks[i]
		if valueSwitch {
			for _, e := range cc.List {
				b.add(e) // guard expressions evaluate on this arm
			}
		}
		b.fallTo = nil
		if i+1 < len(clauses) {
			b.fallTo = blks[i+1]
		}
		b.stmtList(cc.Body)
		b.edge(done)
	}
	b.pop()
	b.fallTo = savedFall
	b.cur = done
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	b.add(s) // header node: clause bodies live in their own blocks
	sel := b.cur
	done := b.newBlock()
	b.push(target{label: label, brk: done})
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		blk := b.newBlock()
		sel.Succs = append(sel.Succs, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm, "")
		}
		b.stmtList(cc.Body)
		b.edge(done)
	}
	b.pop()
	// An empty select{} blocks forever: done keeps no predecessors.
	b.cur = done
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		if t := b.findTarget(s.Label, false); t != nil {
			b.edge(t)
		}
	case token.CONTINUE:
		if t := b.findTarget(s.Label, true); t != nil {
			b.edge(t)
		}
	case token.GOTO:
		b.edge(b.labelBlock(s.Label.Name))
	case token.FALLTHROUGH:
		if b.fallTo != nil {
			b.edge(b.fallTo)
		}
	}
	b.dead()
}

// findTarget resolves a break/continue destination, innermost first.
func (b *builder) findTarget(label *ast.Ident, cont bool) *Block {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if label != nil && t.label != label.Name {
			continue
		}
		if cont {
			if t.cont != nil {
				return t.cont
			}
			continue
		}
		return t.brk
	}
	return nil
}

func (g *Graph) computeReach() {
	g.reach = make([]bool, len(g.Blocks))
	var visit func(b *Block)
	visit = func(b *Block) {
		if g.reach[b.Index] {
			return
		}
		g.reach[b.Index] = true
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(g.Entry)
}

// A FuncBody is one analyzable function body: a declared function or a
// function literal. Literals get their own graphs; their bodies are
// pruned out of the enclosing function's walk by Inspect.
type FuncBody struct {
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Body *ast.BlockStmt
}

// FuncBodies returns every function body in file, outermost first.
func FuncBodies(file *ast.File) []FuncBody {
	var out []FuncBody
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, FuncBody{Decl: n, Body: n.Body})
			}
		case *ast.FuncLit:
			out = append(out, FuncBody{Lit: n, Body: n.Body})
		}
		return true
	})
	return out
}

// Inspect walks the AST beneath one block node in source order, calling
// visit for each node (pre-order; returning false skips the node's
// children). It does not descend into regions owned by other blocks or
// other functions: function-literal bodies (the literal itself is
// visited), the bodies of RangeStmt headers (key/value/operand are
// visited), and everything beneath a SelectStmt header.
func Inspect(n ast.Node, visit func(ast.Node) bool) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		if !visit(n) {
			return
		}
		for _, e := range []ast.Expr{n.Key, n.Value, n.X} {
			if e != nil {
				inspectPruned(e, visit)
			}
		}
		return
	case *ast.SelectStmt:
		visit(n)
		return
	}
	inspectPruned(n, visit)
}

func inspectPruned(root ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(root, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if lit, ok := m.(*ast.FuncLit); ok && m != root {
			visit(lit)
			return false
		}
		return visit(m)
	})
}
