// Package lockguard flags sync.Mutex / sync.RWMutex misuse that leads
// to deadlocks or stalled peers in the serving fleet:
//
//  1. A lock held at a blocking operation — channel send or receive,
//     range over a channel, select without a default clause,
//     sync.WaitGroup.Wait, time.Sleep, or a call into net / the
//     blocking parts of net/http. Anything waiting on that mutex
//     (every request handler, typically) stalls for as long as the
//     operation does, and a cycle through the channel deadlocks.
//  2. A path returning with the lock still held and no deferred
//     unlock: every later acquirer deadlocks.
//  3. Re-acquiring a lock already held (Lock-after-Lock, and the
//     RWMutex Lock/RLock self-deadlock pairs). sync mutexes are not
//     reentrant.
//
// The analysis is intraprocedural and CFG-precise: "held" is a
// must-fact (true on every path reaching the operation), so a lock
// released on one arm of a branch is not reported on the join. Helpers
// that intentionally return holding a lock, and sends that are
// provably non-blocking, can be suppressed with //tlrob:allow(reason)
// — or better, made non-blocking explicitly with a select+default.
// Mutexes are identified by receiver expression text, so aliasing
// through pointers is invisible; sync.Locker values and TryLock are
// ignored. Test files are exempt.
package lockguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer is the lockguard pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc:  "flag mutexes held across blocking operations, paths returning with a lock held, and re-locking without an unlock",
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

// Fact-key prefixes: "w " write-held, "r " read-held, "dw "/"dr " a
// deferred Unlock/RUnlock is registered. The rest of the key is the
// receiver expression, e.g. "w s.mu".
const (
	wHeld = "w "
	rHeld = "r "
	wDefr = "dw "
	rDefr = "dr "
)

type checker struct {
	pass *analysis.Pass
	info *types.Info

	// comm holds every communication statement of every select: their
	// sends/receives are accounted for at the select header, not
	// reported individually.
	comm map[ast.Node]bool

	// lockPos remembers where each lock key was last acquired, for
	// return-holding-lock diagnostics.
	lockPos map[string]token.Pos

	// dedup collapses the per-return and at-exit views of the same
	// leaked lock into one diagnostic.
	dedup map[string]bool
}

func check(pass *analysis.Pass, body *ast.BlockStmt) {
	ck := &checker{
		pass:    pass,
		info:    pass.TypesInfo,
		comm:    make(map[ast.Node]bool),
		lockPos: make(map[string]token.Pos),
		dedup:   make(map[string]bool),
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				if cc := c.(*ast.CommClause); cc.Comm != nil {
					ck.comm[cc.Comm] = true
				}
			}
		}
		return true
	})

	g := cfg.New(body, cfg.Options{NoReturn: cfg.StdNoReturn(ck.info)})
	flow := &cfg.Flow[string]{
		Join: cfg.Must,
		Transfer: func(n ast.Node, fact cfg.Set[string]) {
			ck.apply(n, fact, false)
		},
	}
	ins := flow.Solve(g)

	// Replay each reachable block with reporting on.
	for _, blk := range g.Blocks {
		in, ok := ins[blk]
		if !ok {
			continue
		}
		fact := in.Clone()
		for _, n := range blk.Nodes {
			ck.apply(n, fact, true)
		}
	}
	// The implicit return: falling off the end with a lock held.
	if exit, ok := ins[g.Exit]; ok {
		ck.checkLeak(exit)
	}
}

// apply processes one block node's subtree: lock/unlock transfers
// always, diagnostics only when report is set (the solver must stay
// side-effect-free).
func (ck *checker) apply(n ast.Node, fact cfg.Set[string], report bool) {
	// A select's communication op blocks as part of the select, which
	// is judged at its header; don't re-report it here.
	suppress := ck.comm[n]
	var visit func(ast.Node) bool
	visit = func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt:
			for _, a := range m.Call.Args {
				cfg.Inspect(a, visit) // args evaluate now
			}
			ck.registerDefer(m.Call, fact)
			return false
		case *ast.GoStmt:
			for _, a := range m.Call.Args {
				cfg.Inspect(a, visit) // args evaluate now; the call runs elsewhere
			}
			return false
		case *ast.CallExpr:
			if key, op, ok := ck.lockOp(m); ok {
				ck.applyLock(m, key, op, fact, report)
				return true
			}
			if report && !suppress {
				if name, blocking := ck.blockingCall(m); blocking {
					ck.reportHeld(m.Pos(), fact, "blocking call "+name)
				}
			}
			return true
		case *ast.SendStmt:
			if report && !suppress {
				ck.reportHeld(m.Arrow, fact, "channel send")
			}
			return true
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && report && !suppress {
				ck.reportHeld(m.OpPos, fact, "channel receive")
			}
			return true
		case *ast.SelectStmt:
			if report && !hasDefault(m) {
				ck.reportHeld(m.Select, fact, "select without default")
			}
			return false
		case *ast.RangeStmt:
			if report {
				if t := ck.info.TypeOf(m.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						ck.reportHeld(m.For, fact, "range over channel")
					}
				}
			}
			return true
		case *ast.ReturnStmt:
			if report {
				ck.checkLeak(fact)
			}
			return true
		}
		return true
	}
	cfg.Inspect(n, visit)
}

func (ck *checker) applyLock(call *ast.CallExpr, key, op string, fact cfg.Set[string], report bool) {
	switch op {
	case "Lock":
		if report {
			if fact.Has(wHeld + key) {
				ck.pass.Reportf(call.Pos(), "%s.Lock while %s is already locked on every path here: sync mutexes are not reentrant, this deadlocks", key, key)
			} else if fact.Has(rHeld + key) {
				ck.pass.Reportf(call.Pos(), "%s.Lock while holding %s.RLock: an RWMutex writer waits for its own reader, this deadlocks", key, key)
			}
		}
		fact.Add(wHeld + key)
		ck.lockPos[key] = call.Pos()
	case "RLock":
		if report && fact.Has(wHeld+key) {
			ck.pass.Reportf(call.Pos(), "%s.RLock while holding %s.Lock: an RWMutex reader waits for the writer, this deadlocks", key, key)
		}
		fact.Add(rHeld + key)
		ck.lockPos[key] = call.Pos()
	case "Unlock":
		fact.Delete(wHeld + key)
	case "RUnlock":
		fact.Delete(rHeld + key)
	}
}

// registerDefer records deferred unlocks: `defer mu.Unlock()` directly,
// or unlock calls inside a deferred function literal.
func (ck *checker) registerDefer(call *ast.CallExpr, fact cfg.Set[string]) {
	if key, op, ok := ck.lockOp(call); ok {
		switch op {
		case "Unlock":
			fact.Add(wDefr + key)
		case "RUnlock":
			fact.Add(rDefr + key)
		}
		return
	}
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		inner, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, op, ok := ck.lockOp(inner); ok {
			switch op {
			case "Unlock":
				fact.Add(wDefr + key)
			case "RUnlock":
				fact.Add(rDefr + key)
			}
		}
		return true
	})
}

// reportHeld emits one diagnostic if any lock is must-held at pos.
func (ck *checker) reportHeld(pos token.Pos, fact cfg.Set[string], what string) {
	held := heldKeys(fact)
	if len(held) == 0 {
		return
	}
	ck.pass.Reportf(pos, "%s while holding %s: the lock is held for the full wait, stalling every other acquirer (and risking deadlock)", what, strings.Join(held, ", "))
}

// checkLeak reports locks still held at a return with no deferred
// unlock registered, one diagnostic per lock site.
func (ck *checker) checkLeak(fact cfg.Set[string]) {
	for _, key := range heldKeys(fact) {
		var defr string
		if fact.Has(wHeld + key) {
			defr = wDefr + key
		} else {
			defr = rDefr + key
		}
		if fact.Has(defr) {
			continue
		}
		pos, ok := ck.lockPos[key]
		if !ok {
			continue
		}
		id := key + "@" + ck.pass.Fset.Position(pos).String()
		if ck.dedup[id] {
			continue
		}
		ck.dedup[id] = true
		ck.pass.Reportf(pos, "%s can still be held when the function returns (no unlock on some path and no deferred unlock): the next acquirer deadlocks", key)
	}
}

// heldKeys lists the lock names held in fact, sorted for deterministic
// output.
func heldKeys(fact cfg.Set[string]) []string {
	seen := make(map[string]bool)
	for k := range fact {
		var key string
		switch {
		case strings.HasPrefix(k, wHeld):
			key = k[len(wHeld):]
		case strings.HasPrefix(k, rHeld):
			key = k[len(rHeld):]
		default:
			continue
		}
		seen[key] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockOp classifies call as a Lock/Unlock/RLock/RUnlock on a
// sync.Mutex or sync.RWMutex (including promoted methods of embedded
// mutexes), returning the receiver expression as the lock key.
func (ck *checker) lockOp(call *ast.CallExpr) (key, op string, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	fn, okFn := ck.info.Uses[sel.Sel].(*types.Func)
	if !okFn {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	sig, okSig := fn.Type().(*types.Signature)
	if !okSig || sig.Recv() == nil {
		return "", "", false
	}
	if !analysis.IsNamedType(sig.Recv().Type(), "sync", "Mutex") &&
		!analysis.IsNamedType(sig.Recv().Type(), "sync", "RWMutex") {
		return "", "", false
	}
	return types.ExprString(sel.X), fn.Name(), true
}

// blockingCall reports whether call is on the curated blocking list.
func (ck *checker) blockingCall(call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return "", false
	}
	fn, ok := ck.info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	name := fn.Name()
	pkg := fn.Pkg().Path()
	// Any call into package net dials, listens, reads, or writes.
	if pkg == "net" {
		return "net." + name, true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if sig.Recv() == nil {
		switch pkg {
		case "time":
			if name == "Sleep" {
				return "time.Sleep", true
			}
		case "net/http":
			switch name {
			case "Get", "Head", "Post", "PostForm",
				"ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS":
				return "http." + name, true
			}
		}
		return "", false
	}
	recv := sig.Recv().Type()
	switch {
	case analysis.IsNamedType(recv, "sync", "WaitGroup") && name == "Wait":
		return "WaitGroup.Wait", true
	case analysis.IsNamedType(recv, "net/http", "Client"):
		switch name {
		case "Do", "Get", "Head", "Post", "PostForm":
			return "http.Client." + name, true
		}
	case analysis.IsNamedType(recv, "net/http", "Server"):
		switch name {
		case "ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS", "Shutdown":
			return "http.Server." + name, true
		}
	case name == "ServeHTTP":
		return "ServeHTTP", true
	}
	return "", false
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}
