// Package bodyclose verifies that every *http.Response obtained from
// net/http (Client.Do/Get/Head/Post/PostForm, the package-level
// helpers, Transport.RoundTrip) reaches a Body.Close on every
// non-error path. An unclosed body pins the underlying connection:
// the transport cannot return it to the idle pool, so the coordinator,
// prober, member-sync, and replication clients leak a connection (and a
// reading goroutine) per call until the peer times them out.
//
// The analysis is a CFG may-analysis: a response is "open" from the
// call that produced it until a path closes it, and any path reaching
// the function's exit with the response still open is reported at the
// originating call. The err != nil / err == nil branch guarding the
// call is understood — the error arm is not required to close the
// (nil) response. A response that escapes the function — returned,
// passed whole to another call, captured by a non-deferred closure,
// stored in a composite — becomes the consumer's responsibility and
// is not reported; passing only resp.Body to a reader (json.NewDecoder,
// io.Copy) does not count as closing. Responses whose result is
// discarded outright are reported at the call. Test files are exempt.
package bodyclose

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer is the bodyclose pass.
var Analyzer = &analysis.Analyzer{
	Name: "bodyclose",
	Doc:  "every *http.Response from Client.Do/Get/Post must reach Body.Close on all non-error paths",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, fb := range cfg.FuncBodies(file) {
			check(pass, fb.Body)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	info *types.Info

	// One entry per response-producing call assigned to a variable.
	respOrder []types.Object // discovery order, for deterministic reports
	callPos   map[types.Object]token.Pos
	gens      map[*ast.AssignStmt]types.Object
	genLHS    map[*ast.Ident]bool // lhs idents of gen assigns (not escapes)
	selBase   map[*ast.Ident]bool // idents appearing as SelectorExpr.X
	// errResps maps an error variable to the responses produced
	// alongside it, for err-branch edge refinement.
	errResps map[types.Object][]types.Object
}

func check(pass *analysis.Pass, body *ast.BlockStmt) {
	ck := &checker{
		pass:     pass,
		info:     pass.TypesInfo,
		callPos:  make(map[types.Object]token.Pos),
		gens:     make(map[*ast.AssignStmt]types.Object),
		genLHS:   make(map[*ast.Ident]bool),
		selBase:  make(map[*ast.Ident]bool),
		errResps: make(map[types.Object][]types.Object),
	}
	ck.prepass(body)
	if len(ck.respOrder) == 0 {
		return
	}

	g := cfg.New(body, cfg.Options{NoReturn: cfg.StdNoReturn(ck.info)})
	flow := &cfg.Flow[types.Object]{
		Join:     cfg.May,
		Transfer: ck.transfer,
		Edge:     ck.refineEdge,
	}
	ins := flow.Solve(g)
	exit, ok := ins[g.Exit]
	if !ok {
		return // the function never returns
	}
	for _, obj := range ck.respOrder {
		if exit.Has(obj) {
			ck.pass.Reportf(ck.callPos[obj], "response body is not closed on every path from this call: add `defer resp.Body.Close()` right after the error check")
		}
	}
}

// prepass indexes response-producing calls, selector-base idents, and
// discarded responses across the whole body (nested literals
// included, since selector-base status is purely syntactic).
func (ck *checker) prepass(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				ck.selBase[id] = true
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok || !ck.responseCall(call) {
				return true
			}
			lhs, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident)
			if !ok {
				return true // response stored in a field/index: escapes
			}
			if lhs.Name == "_" {
				ck.pass.Reportf(call.Pos(), "http response discarded (blank identifier): its body is never closed and the connection leaks")
				return true
			}
			obj := ck.info.Defs[lhs]
			if obj == nil {
				obj = ck.info.Uses[lhs]
			}
			if obj == nil {
				return true
			}
			ck.gens[n] = obj
			ck.genLHS[lhs] = true
			if _, seen := ck.callPos[obj]; !seen {
				ck.respOrder = append(ck.respOrder, obj)
				ck.callPos[obj] = call.Pos()
			}
			if len(n.Lhs) > 1 {
				if errID, ok := ast.Unparen(n.Lhs[1]).(*ast.Ident); ok {
					errObj := ck.info.Defs[errID]
					if errObj == nil {
						errObj = ck.info.Uses[errID]
					}
					if errObj != nil {
						ck.errResps[errObj] = append(ck.errResps[errObj], obj)
					}
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && ck.responseCall(call) {
				ck.pass.Reportf(call.Pos(), "http response discarded: its body is never closed and the connection leaks")
			}
		}
		return true
	})
}

// transfer applies one block node's effect: gen at the producing
// assignment, kill at Body.Close (direct or deferred) and at escapes.
func (ck *checker) transfer(n ast.Node, fact cfg.Set[types.Object]) {
	var visit func(ast.Node) bool
	visit = func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			if obj, ok := ck.gens[m]; ok {
				fact.Add(obj)
			}
			return true
		case *ast.DeferStmt:
			if obj, ok := ck.closeCall(m.Call); ok {
				fact.Delete(obj)
				return false
			}
			if lit, ok := m.Call.Fun.(*ast.FuncLit); ok {
				ck.killClosesIn(lit.Body, fact)
				return false
			}
			for _, a := range m.Call.Args {
				cfg.Inspect(a, visit) // deferred call's args evaluate now
			}
			return false
		case *ast.CallExpr:
			if obj, ok := ck.closeCall(m); ok {
				fact.Delete(obj)
			}
			return true
		case *ast.FuncLit:
			// A closure capturing the response may close or consume it
			// later; ownership escapes this function's flow.
			ck.killCaptured(m.Body, fact)
			return false
		case *ast.Ident:
			obj := ck.info.Uses[m]
			if obj == nil || ck.selBase[m] || ck.genLHS[m] {
				return true
			}
			if _, tracked := ck.callPos[obj]; tracked {
				fact.Delete(obj) // escapes whole: returned, passed, stored
			}
			return true
		}
		return true
	}
	cfg.Inspect(n, visit)
}

// refineEdge kills responses on the error arm of their guarding
// err != nil / err == nil branch: a failed call returns no body.
func (ck *checker) refineEdge(from *cfg.Block, i int, fact cfg.Set[types.Object]) {
	cond, ok := from.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.NEQ && cond.Op != token.EQL) {
		return
	}
	var errID *ast.Ident
	if isNil(ck.info, cond.Y) {
		errID, _ = ast.Unparen(cond.X).(*ast.Ident)
	} else if isNil(ck.info, cond.X) {
		errID, _ = ast.Unparen(cond.Y).(*ast.Ident)
	}
	if errID == nil {
		return
	}
	errObj := ck.info.Uses[errID]
	resps, ok := ck.errResps[errObj]
	if !ok {
		return
	}
	// NEQ: the true edge (i==0) is the error arm. EQL: the false edge.
	errorArm := 0
	if cond.Op == token.EQL {
		errorArm = 1
	}
	if i == errorArm {
		for _, obj := range resps {
			fact.Delete(obj)
		}
	}
}

func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := info.Uses[id].(*types.Nil)
	return isNilObj
}

// closeCall matches `<resp>.Body.Close()` for a tracked resp.
func (ck *checker) closeCall(call *ast.CallExpr) (types.Object, bool) {
	outer, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || outer.Sel.Name != "Close" {
		return nil, false
	}
	inner, ok := ast.Unparen(outer.X).(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != "Body" {
		return nil, false
	}
	id, ok := ast.Unparen(inner.X).(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := ck.info.Uses[id]
	if obj == nil {
		return nil, false
	}
	if _, tracked := ck.callPos[obj]; !tracked {
		return nil, false
	}
	return obj, true
}

// killClosesIn kills responses closed inside a deferred literal.
func (ck *checker) killClosesIn(body *ast.BlockStmt, fact cfg.Set[types.Object]) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj, ok := ck.closeCall(call); ok {
				fact.Delete(obj)
			}
		}
		return true
	})
}

// killCaptured kills responses referenced anywhere in a non-deferred
// closure body: the closure now shares ownership.
func (ck *checker) killCaptured(body *ast.BlockStmt, fact cfg.Set[types.Object]) {
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := ck.info.Uses[id]; obj != nil {
				if _, tracked := ck.callPos[obj]; tracked {
					fact.Delete(obj)
				}
			}
		}
		return true
	})
}

// responseCall reports whether call produces an *http.Response the
// caller must close: Client.Do/Get/Head/Post/PostForm,
// Transport.RoundTrip (or any net/http RoundTripper), and the
// package-level Get/Head/Post/PostForm helpers.
func (ck *checker) responseCall(call *ast.CallExpr) bool {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return false
	}
	fn, ok := ck.info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
		return false
	}
	name := fn.Name()
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Recv() == nil {
		switch name {
		case "Get", "Head", "Post", "PostForm":
			return true
		}
		return false
	}
	if name == "RoundTrip" {
		return true
	}
	if !analysis.IsNamedType(sig.Recv().Type(), "net/http", "Client") {
		return false
	}
	switch name {
	case "Do", "Get", "Head", "Post", "PostForm":
		return true
	}
	return false
}
