package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Errcontract enforces the error-identity discipline the recovery layers
// depend on. The codebase signals recoverable conditions with typed
// sentinels — faultinject.ErrInjected, checkpoint.ErrCorrupt,
// faultinject's *UnknownOpError — and both checkpoint/resume and the
// differential harness branch on them.
// That only works if every layer between the throw and the catch preserves
// identity:
//
//   - sentinel comparisons go through errors.Is, never == or != (a wrapped
//     sentinel compares unequal but Is-matches);
//   - typed errors are recovered with errors.As, never a direct type
//     assertion or type switch (same reason);
//   - wrapping uses fmt.Errorf with %w — %v flattens the chain and the
//     sentinel is unreachable downstream;
//   - error text is never matched (err.Error() compared or substring-
//     searched): messages are for humans and change freely.
//
// Comparisons against nil are exempt everywhere — err != nil is the
// language's error protocol, not an identity check.
var Errcontract = &Analyzer{
	Name: "errcontract",
	Doc:  "typed error sentinels must be wrapped with %w and tested via errors.Is/As — flags ==/!= against sentinels, type assertions on errors, %v-wrapping, and error-string matching",
	Run:  runErrcontract,
}

func runErrcontract(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				checkErrComparison(p, x)
			case *ast.TypeAssertExpr:
				checkErrAssertion(p, x)
			case *ast.TypeSwitchStmt:
				checkErrTypeSwitch(p, x)
			case *ast.CallExpr:
				checkErrorfWrap(p, x)
				checkStringMatch(p, x)
			}
			return true
		})
	}
	return nil
}

// checkErrComparison flags == / != where one side is an error sentinel or
// both sides are error-typed (nil excluded).
func checkErrComparison(p *Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	if isNilExpr(p, be.X) || isNilExpr(p, be.Y) {
		return
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		if name := sentinelErrorName(p, side); name != "" {
			p.Reportf(be.OpPos, "sentinel error %s compared with %s; use errors.Is so wrapped errors still match (error-identity contract)", name, be.Op)
			return
		}
	}
	// err.Error() == "..." handled as string matching.
	if isErrorStringCall(p, be.X) || isErrorStringCall(p, be.Y) {
		p.Reportf(be.OpPos, "error text compared with %s; match identity with errors.Is/As, not strings — messages are for humans and change freely", be.Op)
	}
}

// checkErrAssertion flags err.(*SomeError) on an error-typed operand.
func checkErrAssertion(p *Pass, ta *ast.TypeAssertExpr) {
	if ta.Type == nil {
		return // part of a type switch; handled there
	}
	if !isErrorType(p.TypeOf(ta.X)) {
		return
	}
	if t := p.TypeOf(ta.Type); t != nil && types.IsInterface(t) {
		return // asserting to another interface is a capability check, not identity
	}
	p.Reportf(ta.Pos(), "type assertion on an error; use errors.As so wrapped errors still match (error-identity contract)")
}

// checkErrTypeSwitch flags switch err.(type) with concrete error-type cases.
func checkErrTypeSwitch(p *Pass, ts *ast.TypeSwitchStmt) {
	var operand ast.Expr
	switch st := ts.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := st.X.(*ast.TypeAssertExpr); ok {
			operand = ta.X
		}
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			if ta, ok := st.Rhs[0].(*ast.TypeAssertExpr); ok {
				operand = ta.X
			}
		}
	}
	if operand == nil || !isErrorType(p.TypeOf(operand)) {
		return
	}
	for _, c := range ts.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, texpr := range cc.List {
			t := p.TypeOf(texpr)
			if t == nil || types.IsInterface(t) {
				continue
			}
			p.Reportf(texpr.Pos(), "type switch on an error with concrete case; use errors.As so wrapped errors still match (error-identity contract)")
			return
		}
	}
}

// checkErrorfWrap flags fmt.Errorf calls that pass an error argument but
// wrap nothing — the %w is what keeps errors.Is/As working downstream.
func checkErrorfWrap(p *Pass, call *ast.CallExpr) {
	pkg, name := pkgLevelFunc(p.Info, call.Fun)
	if pkg != "fmt" || name != "Errorf" || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	if strings.Contains(lit.Value, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if isErrorType(p.TypeOf(arg)) {
			p.Reportf(call.Pos(), "fmt.Errorf formats an error without %%w; wrap with %%w so errors.Is/As can reach the sentinel (error-identity contract)")
			return
		}
	}
}

// checkStringMatch flags strings.Contains/HasPrefix/HasSuffix/Index over
// err.Error() output.
func checkStringMatch(p *Pass, call *ast.CallExpr) {
	pkg, name := pkgLevelFunc(p.Info, call.Fun)
	if pkg != "strings" {
		return
	}
	switch name {
	case "Contains", "HasPrefix", "HasSuffix", "Index", "EqualFold":
	default:
		return
	}
	for _, arg := range call.Args {
		if isErrorStringCall(p, arg) {
			p.Reportf(call.Pos(), "error text matched with strings.%s; match identity with errors.Is/As, not strings — messages are for humans and change freely", name)
			return
		}
	}
}

// sentinelErrorName identifies a package-level error variable — the sentinel
// pattern, whether named ErrFoo or EOF-style — and returns its qualified
// display name.
func sentinelErrorName(p *Pass, e ast.Expr) string {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return ""
	}
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	if !isErrorType(v.Type()) {
		return ""
	}
	return v.Pkg().Name() + "." + v.Name()
}

// isErrorStringCall reports whether e is a call to the Error() string
// method of an error value.
func isErrorStringCall(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	return isErrorType(p.TypeOf(sel.X))
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isNilExpr(p *Pass, e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
