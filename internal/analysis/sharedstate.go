package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Sharedstate guards the deterministic-parallelism contract: the restart
// workers in blackbox promise bit-identical results at any worker count
// above one, which only holds if goroutines never race on captured state. The analyzer inspects every closure launched with a go
// statement and flags writes to variables captured from the enclosing
// function unless the write is sanctioned by one of the disciplines the
// codebase actually uses:
//
//   - mutex-guarded: the write sits lexically between a sync Lock/RLock and
//     its Unlock (a deferred Unlock holds to the end of the closure);
//   - channel-owned: results handed back over a channel (a send statement
//     is not a write to captured state);
//   - read-only capture: reads are always fine.
//
// Writes that are deliberately disjoint — each worker owning one slot of a
// preallocated results slice, coordinated by an atomic cursor — are safe,
// but the safety argument lives in the indexing scheme, not the syntax;
// such sites carry a
// //gapvet:allow sharedstate <reason> annotation naming that argument.
var Sharedstate = &Analyzer{
	Name: "sharedstate",
	Doc:  "flags goroutine closures writing captured variables outside a held mutex; shared state in worker pools must be read-only, mutex-guarded, or channel-owned",
	Run:  runSharedstate,
}

func runSharedstate(p *Pass) error {
	for _, node := range p.Graph.Nodes {
		nodeBodyInspect(node, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true // go someFunc(...): arguments are copied, not captured
			}
			checkGoroutineLit(p, node, lit)
			return true
		})
	}
	return nil
}

// checkGoroutineLit flags unguarded writes to captured variables inside one
// goroutine-launched literal.
func checkGoroutineLit(p *Pass, encl *FuncNode, lit *ast.FuncLit) {
	held := mutexRegions(p, lit.Body)
	report := func(pos token.Pos, v *types.Var) {
		p.Reportf(pos, "goroutine closure writes captured variable %s outside a held mutex; worker-pool state must be read-only, mutex-guarded, or channel-owned (deterministic-parallelism contract)", v.Name())
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested launches are their own check
		}
		switch st := n.(type) {
		case *ast.GoStmt:
			if innerLit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
				checkGoroutineLit(p, encl, innerLit)
			}
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if v := capturedWriteTarget(p, encl, lit, lhs); v != nil && !held.covers(st.Pos()) {
					report(lhs.Pos(), v)
				}
			}
		case *ast.IncDecStmt:
			if v := capturedWriteTarget(p, encl, lit, st.X); v != nil && !held.covers(st.Pos()) {
				report(st.X.Pos(), v)
			}
		}
		return true
	})
}

// capturedWriteTarget resolves a write destination to the captured local it
// mutates, or nil when the destination is closure-local (or not captured
// state at all). Writes through a captured slice/map/pointer root count:
// results[i] = x mutates memory every worker can reach.
func capturedWriteTarget(p *Pass, encl *FuncNode, lit *ast.FuncLit, dest ast.Expr) *types.Var {
	obj := rootObject(p, dest)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() == nil || v.Parent() == p.Pkg.Scope() {
		return nil // package-level state is floateq/maporder territory, not capture
	}
	// Declared inside the literal (including its params): worker-local.
	if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
		return nil
	}
	// Declared inside the enclosing function: captured.
	if body := encl.Body(); body != nil && v.Pos() >= encl.Pos() && v.Pos() <= body.End() {
		return v
	}
	return nil
}

// lockRegion is a lexical [Lock, Unlock) span; end == token.NoPos means the
// lock is released by defer and holds to the end of the body.
type lockRegion struct {
	start, end token.Pos
}

type lockRegions []lockRegion

func (rs lockRegions) covers(pos token.Pos) bool {
	for _, r := range rs {
		if pos > r.start && (r.end == token.NoPos || pos < r.end) {
			return true
		}
	}
	return false
}

// mutexRegions scans a closure body for sync Lock/Unlock pairs and returns
// the lexical regions where a mutex is held. The matching is positional,
// which is exactly right for the two idioms the codebase uses —
// mu.Lock(); defer mu.Unlock() and mu.Lock(); ...; mu.Unlock() — and
// conservative for anything fancier.
func mutexRegions(p *Pass, body *ast.BlockStmt) lockRegions {
	var regions lockRegions
	open := -1 // index into regions of the last unmatched Lock
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			// defer mu.Unlock() keeps the region open to the body's end.
			if isSyncCall(p, d.Call, "Unlock", "RUnlock") && open >= 0 {
				open = -1
			}
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isSyncCall(p, call, "Lock", "RLock"):
			regions = append(regions, lockRegion{start: call.Pos(), end: token.NoPos})
			open = len(regions) - 1
		case isSyncCall(p, call, "Unlock", "RUnlock"):
			if open >= 0 {
				regions[open].end = call.Pos()
				open = -1
			}
		}
		return true
	})
	return regions
}

// isSyncCall reports whether call invokes a sync-package method with one of
// the given names (sync.Mutex, sync.RWMutex, or anything satisfying
// sync.Locker).
func isSyncCall(p *Pass, call *ast.CallExpr, names ...string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	for _, name := range names {
		if fn.Name() == name {
			return true
		}
	}
	return false
}
