// Package obspure enforces purity across the engine observability seam.
//
// The engines hand observers an Event whose Actions slice — and protocols a
// Message whose Heard slice — is a borrowed engine buffer: valid only for
// the duration of the callback, recycled immediately after. PR 3 shipped
// (and fixed) exactly this bug class: an observer retained e.Actions, the
// engine reused the backing array next slot, and traces silently described
// slots that never happened. The dynamic defenses (differential trace
// tests) only catch retention that changes an output the tests compare;
// this analyzer rejects the shapes at compile time.
//
// Scope: methods named OnEvent taking one sim.Event, func literals taking
// one sim.Event (the ObserverFunc idiom), and methods named Deliver taking
// one radio.Message. Inside those callbacks the analyzer reports:
//
//   - writes through a borrowed slice (e.Actions[i] = ..., and append with
//     a borrowed slice as destination), which corrupt engine state;
//   - retention of a borrowed slice header past the callback — storing it
//     in a field, element or outer variable, sending it on a channel, or
//     returning it. Spread-copying (append(dst, e.Actions...)) and passing
//     it to a function are fine: copies are the documented boundary
//     discipline (see radio.Message.Heard);
//   - re-entering the engines (sim.RunSync / RunAsync) from inside a
//     callback, which would recursively recycle the very
//     buffers the outer callback is holding.
package obspure

import (
	"go/ast"
	"go/types"

	"m2hew/internal/lint"
)

// Analyzer reports payload mutation, slice retention, and engine re-entry
// inside observer and protocol delivery callbacks.
var Analyzer = &lint.Analyzer{
	Name: "obspure",
	Doc:  "observer/deliver callbacks must not mutate or retain borrowed event slices, or re-enter the engines",
	Run:  run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil || n.Recv == nil {
					return true
				}
				if param := callbackParam(pass, n.Name.Name, n.Type); param != nil {
					checkCallback(pass, n.Body, param)
				}
			case *ast.FuncLit:
				if param := callbackParam(pass, "", n.Type); param != nil {
					checkCallback(pass, n.Body, param)
				}
			}
			return true
		})
	}
	return nil
}

// callbackParam returns the borrowed-payload parameter object when the
// function is an observer or delivery callback: name "OnEvent" (or any
// func literal) with one sim.Event parameter, or name "Deliver" with one
// radio.Message parameter.
func callbackParam(pass *lint.Pass, name string, ft *ast.FuncType) types.Object {
	if ft.Params == nil || len(ft.Params.List) != 1 {
		return nil
	}
	field := ft.Params.List[0]
	if len(field.Names) != 1 || field.Names[0].Name == "_" {
		return nil
	}
	tv, ok := pass.Info.Types[field.Type]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	pkgPath, typeName := named.Obj().Pkg().Path(), named.Obj().Name()
	isEvent := pkgPath == lint.SimPath && typeName == "Event"
	isMessage := pkgPath == lint.RadioPath && typeName == "Message"
	switch {
	case name == "OnEvent" && isEvent:
	case name == "" && isEvent: // ObserverFunc literal
	case name == "Deliver" && isMessage:
	default:
		return nil
	}
	return pass.Info.Defs[field.Names[0]]
}

// checkCallback walks one callback body tracking ancestry, and reports each
// impure use of a borrowed slice plus any engine re-entry.
func checkCallback(pass *lint.Pass, body *ast.BlockStmt, param types.Object) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if borrowedSlice(pass, n, param) {
				checkUse(pass, n, stack, body)
			}
		case *ast.CallExpr:
			checkReentry(pass, n)
		}
		return true
	})
}

// borrowedSlice reports whether sel reads a slice-typed field directly off
// the callback parameter (e.Actions, msg.Heard, ...).
func borrowedSlice(pass *lint.Pass, sel *ast.SelectorExpr, param types.Object) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok || pass.Info.Uses[id] != param {
		return false
	}
	tv, ok := pass.Info.Types[sel]
	if !ok || tv.Type == nil {
		return false
	}
	_, isSlice := tv.Type.Underlying().(*types.Slice)
	return isSlice
}

// checkUse classifies one occurrence of a borrowed slice by its syntactic
// context (nearest enclosing node) and reports mutation or retention.
func checkUse(pass *lint.Pass, sel *ast.SelectorExpr, stack []ast.Node, body *ast.BlockStmt) {
	// stack[len(stack)-1] is sel itself; walk outward past parens.
	i := len(stack) - 2
	for i >= 0 {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			i--
			continue
		}
		break
	}
	if i < 0 {
		return
	}
	name := sel.Sel.Name
	switch parent := stack[i].(type) {
	case *ast.IndexExpr:
		// e.Actions[i] — a write makes it mutation; a read is fine. The
		// write may target the element itself or reach it through a
		// selector/index chain (e.Actions[i].Channel = 9, ...++), so walk
		// outward until the path leaves an assignable position.
		if parent.X != sel {
			return // sel is the index operand: a read
		}
		expr := ast.Expr(parent)
		for j := i - 1; j >= 0; j-- {
			switch outer := stack[j].(type) {
			case *ast.ParenExpr:
				expr = outer
			case *ast.SelectorExpr:
				expr = outer
			case *ast.IndexExpr:
				if outer.X != expr {
					return // element used as an index expression: a read
				}
				expr = outer
			case *ast.AssignStmt:
				// Plain and compound (+=, ...) assignments both write.
				if isLHS(outer, expr) {
					pass.Reportf(parent.Pos(), "write through borrowed slice %s mutates engine state: the payload is read-only", name)
				}
				return
			case *ast.IncDecStmt:
				if outer.X == expr {
					pass.Reportf(parent.Pos(), "write through borrowed slice %s mutates engine state: the payload is read-only", name)
				}
				return
			default:
				return
			}
		}
	case *ast.CallExpr:
		fn, _ := parent.Fun.(*ast.Ident)
		switch {
		case fn != nil && fn.Name == "append" && len(parent.Args) > 0 && parent.Args[0] == sel:
			pass.Reportf(parent.Pos(), "append with borrowed slice %s as destination writes into the engine's backing array", name)
		case fn != nil && (fn.Name == "len" || fn.Name == "cap" || fn.Name == "copy" || fn.Name == "append" && parent.Ellipsis.IsValid() && parent.Args[len(parent.Args)-1] == sel):
			// len/cap, copy-from, and spread-append element copies: fine.
		case fn != nil && fn.Name == "append":
			// append(x, e.Actions) without ... stores the slice header.
			pass.Reportf(sel.Pos(), "appending borrowed slice %s retains it past the callback: spread-copy its elements instead", name)
		default:
			// Passing the slice to a function: the callee sees the same
			// borrow contract; allowed.
		}
	case *ast.AssignStmt:
		if isLHS(parent, sel) {
			return // e.Actions = ... rebinds a local copy's field: harmless
		}
		for _, lhs := range parent.Lhs {
			if retainingTarget(pass, lhs, body) {
				pass.Reportf(sel.Pos(), "storing borrowed slice %s outlives the callback: boundary-copy it first", name)
				return
			}
		}
	case *ast.CompositeLit:
		pass.Reportf(sel.Pos(), "borrowed slice %s placed in a composite literal retains it past the callback: boundary-copy it first", name)
	case *ast.KeyValueExpr:
		if parent.Value == sel {
			pass.Reportf(sel.Pos(), "borrowed slice %s placed in a composite literal retains it past the callback: boundary-copy it first", name)
		}
	case *ast.SendStmt:
		if parent.Value == sel {
			pass.Reportf(sel.Pos(), "sending borrowed slice %s on a channel retains it past the callback: boundary-copy it first", name)
		}
	case *ast.ReturnStmt:
		pass.Reportf(sel.Pos(), "returning borrowed slice %s leaks it past the callback: boundary-copy it first", name)
	}
}

// isLHS reports whether e appears on the left-hand side of as.
func isLHS(as *ast.AssignStmt, e ast.Expr) bool {
	for _, lhs := range as.Lhs {
		if lhs == e {
			return true
		}
	}
	return false
}

// retainingTarget reports whether assigning to lhs stores a value where it
// survives the callback: a field or element of anything, or a variable
// declared outside the callback body (a captured or package-level variable).
func retainingTarget(pass *lint.Pass, lhs ast.Expr, body *ast.BlockStmt) bool {
	switch lhs := lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		if lhs.Name == "_" {
			return false
		}
		obj := pass.Info.Uses[lhs]
		if obj == nil {
			obj = pass.Info.Defs[lhs]
		}
		if obj == nil {
			return false
		}
		// Declared outside the callback body → survives the callback.
		return obj.Pos() < body.Pos() || obj.Pos() >= body.End()
	}
	return false
}

// checkReentry reports calls to the engine entry points from inside a
// callback.
func checkReentry(pass *lint.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != lint.SimPath {
		return
	}
	switch fn.Name() {
	case "RunSync", "RunAsync":
		pass.Reportf(call.Pos(), "%s re-enters the engine from inside a callback: the engine recycles the buffers this callback is borrowing", fn.Name())
	}
}
