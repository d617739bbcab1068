package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotalloc enforces the zero-allocation contract on the solver's hot
// paths. A function annotated
//
//	//gapvet:hotpath <reason>
//
// (in its doc comment) sits inside the per-pivot working set — pivot
// elimination, basis installs, pricing loops — where a single heap allocation
// per call multiplies into millions per search and shows up directly in
// the bench ledger's ns/pivot. Inside such a function the analyzer flags:
//
//   - append whose destination shows no preallocation evidence: the
//     destination must be built by make with an explicit length/capacity
//     in the same function, or be caller-owned (a parameter, or a field
//     reached through the receiver or a parameter, whose capacity is
//     amortized by the caller);
//   - map and slice composite literals;
//   - fmt.Sprint/Sprintf/Errorf-family calls;
//   - function literals that capture local variables (closure allocation);
//   - interface boxing at call sites (a concrete value passed to an
//     interface parameter);
//   - transitively, calls to any function that allocates by the same
//     rules — through helpers, methods, and other packages, via
//     "allocates" facts.
//
// Deliberate, amortized allocations (periodic refactorization, error
// paths) are annotated //gapvet:allow hotalloc <reason> at the site.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "functions annotated //gapvet:hotpath may not allocate: flags appends without preallocation evidence, map/slice literals, Sprintf, capturing closures, interface boxing, and calls into allocating code (interprocedural)",
	Run:  runHotalloc,
}

// hotpathMarker is the annotation that opts a function into the contract.
const hotpathMarker = "//gapvet:hotpath"

// isHotpath reports whether a declared function carries the marker in its
// doc comment.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), hotpathMarker) {
			return true
		}
	}
	return false
}

func runHotalloc(p *Pass) error {
	// Fact generation in every package: each function's own allocation
	// sites (annotated ones excluded), closed over resolved calls.
	details := factProp{
		fact: FactAllocates,
		direct: func(n *FuncNode) string {
			for _, s := range allocSites(p, n) {
				if !p.Allowed("hotalloc", s.pos) {
					return fmt.Sprintf("%s at %s", s.what, p.Fset.Position(s.pos))
				}
			}
			return ""
		},
	}.run(p)

	// Flagging: only annotated functions carry the obligation.
	for _, node := range p.Graph.Nodes {
		if node.Decl == nil || !isHotpath(node.Decl) {
			continue
		}
		for _, s := range allocSites(p, node) {
			p.Reportf(s.pos, "%s in hotpath function %s; hot loops must not allocate — preallocate, hoist, or annotate the amortized exception", s.what, node.Decl.Name.Name)
		}
		// Transitive: calls into allocating code. A callee that is itself
		// hotpath-annotated reports its own sites; no need to re-flag here.
		for _, e := range node.Out {
			switch {
			case e.Callee != nil:
				if e.Callee.Decl != nil && isHotpath(e.Callee.Decl) {
					continue
				}
				if d := details[e.Callee]; d != "" {
					p.Reportf(e.Site.Pos(), "call to %s allocates (%s) in hotpath function %s", edgeDisplay(p, e), d, node.Decl.Name.Name)
				}
			case e.CalleeObj != nil && e.CalleeObj.Pkg() != p.Pkg:
				if prov, ok := p.Facts.Lookup(FactAllocates, ObjKey(e.CalleeObj)); ok {
					p.Reportf(e.Site.Pos(), "call to %s allocates (%s) in hotpath function %s", FuncDisplayName(ObjKey(e.CalleeObj)), prov, node.Decl.Name.Name)
				}
			}
		}
	}
	return nil
}

// allocSite is one allocation inside a function body.
type allocSite struct {
	pos  token.Pos
	what string
}

// allocSites lists the allocation sites lexically owned by node, in
// source order. Nested function literals are not descended into (their
// bodies are their own call-graph nodes); a literal that captures local
// state is itself a site.
func allocSites(p *Pass, node *FuncNode) []allocSite {
	callerOwned := callerOwnedObjects(p, node)

	// Preallocation evidence: destinations assigned from make(T, n) or
	// make(T, 0, n) in this function, keyed by their rendered path
	// ("buf", "et.idx").
	prealloc := make(map[string]bool)
	recordMake := func(lhs, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, isB := p.Info.Uses[id].(*types.Builtin); isB && b.Name() == "make" {
				if path := exprPath(lhs); path != "" {
					prealloc[path] = true
				}
			}
		}
	}
	nodeBodyInspect(node, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if i < len(st.Rhs) {
					recordMake(lhs, st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if i < len(st.Values) {
					recordMake(name, st.Values[i])
				}
			}
		}
		return true
	})

	var sites []allocSite
	add := func(pos token.Pos, format string, args ...any) {
		sites = append(sites, allocSite{pos: pos, what: fmt.Sprintf(format, args...)})
	}
	nodeBodyInspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if captured := capturedLocal(p, node, x); captured != "" {
				add(x.Pos(), "function literal capturing %s", captured)
			}
			return true
		case *ast.CompositeLit:
			switch p.TypeOf(x).Underlying().(type) {
			case *types.Map:
				add(x.Pos(), "map literal")
			case *types.Slice:
				add(x.Pos(), "slice literal")
			}
			return true
		case *ast.CallExpr:
			// append without preallocation evidence.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, isB := p.Info.Uses[id].(*types.Builtin); isB {
					if b.Name() == "append" && len(x.Args) > 0 {
						dest := x.Args[0]
						path := exprPath(dest)
						if !prealloc[path] && !callerOwned[rootObject(p, dest)] {
							add(x.Pos(), "append to %s without preallocation evidence", describeDest(path))
						}
					}
					return true
				}
			}
			if pkg, name := pkgLevelFunc(p.Info, x.Fun); pkg == "fmt" && (strings.HasPrefix(name, "Sprint") || name == "Errorf") {
				add(x.Pos(), "fmt.%s call", name)
				return true
			}
			// Interface boxing at the call site.
			for _, box := range boxedArgs(p, x) {
				add(box.Pos(), "interface boxing of argument %s", renderExpr(box))
			}
			return true
		}
		return true
	})
	return sites
}

// callerOwnedObjects returns the parameter and receiver objects of a
// function — roots whose storage (and spare capacity) the caller manages.
func callerOwnedObjects(p *Pass, node *FuncNode) map[types.Object]bool {
	owned := make(map[types.Object]bool)
	var ft *ast.FuncType
	if node.Decl != nil {
		ft = node.Decl.Type
		if node.Decl.Recv != nil {
			for _, f := range node.Decl.Recv.List {
				for _, name := range f.Names {
					owned[objOf(p.Info, name)] = true
				}
			}
		}
	} else {
		ft = node.Lit.Type
	}
	if ft.Params != nil {
		for _, f := range ft.Params.List {
			for _, name := range f.Names {
				owned[objOf(p.Info, name)] = true
			}
		}
	}
	// An unresolved root must never read as caller-owned.
	delete(owned, nil)
	return owned
}

// rootObject resolves the leftmost identifier of a destination expression.
func rootObject(p *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return objOf(p.Info, x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			// append(buf[:0], ...) reuses buf's storage; the root owns it.
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprPath renders a destination as a stable path string: "buf",
// "et.idx", "lu.rows". Expressions with calls or indexing render as "".
func exprPath(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.SliceExpr:
		// buf[:0] names the same storage as buf.
		return exprPath(x.X)
	default:
		return ""
	}
}

func describeDest(path string) string {
	if path == "" {
		return "a computed destination"
	}
	return path
}

// capturedLocal names the first function-local variable a literal captures
// from its enclosing function ("" when the literal is capture-free).
// Package-level variables are referenced directly, not via a closure
// context, so they do not force the allocation.
func capturedLocal(p *Pass, encl *FuncNode, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent() == p.Pkg.Scope() || v.Parent().Parent() == types.Universe {
			return true // package-level or universe
		}
		// Declared outside the literal but inside the enclosing function.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			if v.Pos() >= encl.Pos() && v.Pos() <= encl.Body().End() {
				name = v.Name()
				return false
			}
		}
		return true
	})
	return name
}

// boxedArgs returns the call arguments that box a concrete value into an
// interface parameter.
func boxedArgs(p *Pass, call *ast.CallExpr) []ast.Expr {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.IsType() { // conversions are not calls
		return nil
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return nil
	}
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	var out []ast.Expr
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // s... forwards an existing slice, no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			break
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := p.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		out = append(out, arg)
	}
	return out
}

// renderExpr gives a short display of an expression for diagnostics.
func renderExpr(e ast.Expr) string {
	if path := exprPath(e); path != "" {
		return path
	}
	return "value"
}
