// Package scratchalias enforces the scratch-buffer ownership protocol.
//
// The trial-scoped scratch layer (sim.SyncScratch / AsyncScratch,
// clock.DriftProcess rate-buf pooling) keeps the engines at zero heap
// allocations per run by lending buffers across trials. The protocol has
// three clauses, each of which this analyzer checks statically:
//
//   - Adopt/release pairing: a function that hands a pooled buffer to a
//     consumer with AdoptRateBuf must either take them back with
//     ReleaseRateBuf in the same function, or carry an //nd:scratch-owner
//     directive naming who reclaims them (sim.AsyncScratch.clocks does:
//     run-end reclamation is finishRun's job).
//   - No use after handoff: once a buffer obtained from ReleaseRateBuf has
//     been pushed back into a pool (appended to a free list or re-adopted),
//     the local variable is a dangling alias; further reads race with the
//     next borrower.
//   - No aliasing scratch-owned slices into escaping structs: a slice
//     returned by a *Scratch method, or read from a slice field of a
//     *Scratch value (its own or one promoted from an embedded cache such
//     as sim's netTables), is recycled next run, so storing it in a struct
//     field (or a composite literal that is itself stored) makes the struct
//     describe a future run's data. Passing such a literal directly onward
//     as a call argument is the engines' event-emission idiom and stays
//     within the borrow contract, so it is allowed, and so is storing into
//     a struct type declared //nd:run-scoped, whose values die with the
//     run.
package scratchalias

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"m2hew/internal/lint"
)

// Analyzer reports adopt-without-release, use-after-handoff, and aliasing
// of scratch-owned slices into escaping structs.
var Analyzer = &lint.Analyzer{
	Name: "scratchalias",
	Doc:  "enforce scratch buffer ownership: AdoptRateBuf/ReleaseRateBuf pairing, no use after handoff, no aliasing scratch slices into escaping structs",
	Run:  run,
}

func run(pass *lint.Pass) error {
	scoped := runScopedTypes(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkAdoptRelease(pass, fn)
			checkUseAfterHandoff(pass, fn)
			checkScratchAlias(pass, fn, scoped)
		}
	}
	return nil
}

// checkAdoptRelease enforces the pairing clause on one function.
func checkAdoptRelease(pass *lint.Pass, fn *ast.FuncDecl) {
	var adopts []*ast.CallExpr
	releases := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch methodName(call) {
		case "AdoptRateBuf":
			adopts = append(adopts, call)
		case "ReleaseRateBuf":
			releases = true
		}
		return true
	})
	if len(adopts) == 0 || releases {
		return
	}
	if lint.FuncHasDirective(fn, lint.ScratchOwnerDirective) {
		return
	}
	for _, call := range adopts {
		pass.Reportf(call.Pos(), "AdoptRateBuf without a matching ReleaseRateBuf in %s: release in this function or document the owner with %s", fn.Name.Name, lint.ScratchOwnerDirective)
	}
}

// checkUseAfterHandoff tracks variables bound to ReleaseRateBuf results and
// flags reads after the buffer went back to a pool.
func checkUseAfterHandoff(pass *lint.Pass, fn *ast.FuncDecl) {
	// released[obj] is the position where obj was bound to a released buffer.
	released := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || methodName(call) != "ReleaseRateBuf" {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if obj := pass.Info.Defs[id]; obj != nil {
				released[obj] = true
			} else if obj := pass.Info.Uses[id]; obj != nil {
				released[obj] = true
			}
		}
		return true
	})
	if len(released) == 0 {
		return
	}
	// For each released variable, find its handoff point (first position
	// where it is appended into something or re-adopted) and flag later
	// uses. Position order stands in for control flow — the pooling helpers
	// are straight-line code, and a false negative here is still caught by
	// the race detector lane.
	for obj := range released {
		handoff := token.Pos(-1)
		var after []*ast.Ident
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if ok {
				isAppend := false
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
					isAppend = true
				}
				readopt := methodName(call) == "AdoptRateBuf"
				if isAppend || readopt {
					for ai, arg := range call.Args {
						if isAppend && ai == 0 {
							continue // the pool being appended to
						}
						if id, ok := arg.(*ast.Ident); ok && usesObject(pass, id, obj) {
							if handoff == token.Pos(-1) || call.End() < handoff {
								handoff = call.End()
							}
						}
					}
				}
			}
			if id, ok := n.(*ast.Ident); ok && usesObject(pass, id, obj) {
				after = append(after, id)
			}
			return true
		})
		if handoff == token.Pos(-1) {
			continue
		}
		for _, id := range after {
			if id.Pos() > handoff {
				pass.Reportf(id.Pos(), "use of %s after the released buffer was handed back to a pool: it may already belong to the next borrower", id.Name)
			}
		}
	}
}

// usesObject reports whether id refers to obj.
func usesObject(pass *lint.Pass, id *ast.Ident, obj types.Object) bool {
	return pass.Info.Uses[id] == obj
}

// checkScratchAlias tracks variables bound to slices returned by *Scratch
// methods or read from *Scratch slice fields, and flags stores of them, or
// of such field reads directly, that make them outlive the run. Stores into
// the scoped (run-scoped) struct types are allowed.
func checkScratchAlias(pass *lint.Pass, fn *ast.FuncDecl, scoped map[types.Object]bool) {
	owned := make(map[types.Object]bool)
	bind := func(lhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj != nil && isSliceType(obj.Type()) {
			owned[obj] = true
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		// Both x := sc.m(...) and x, y := sc.m(...) (tuple results) bind
		// scratch-owned slices, and so do x := sc.f and x, y := sc.f, sc.g.
		if len(as.Rhs) == 1 {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok && scratchMethod(pass, call) {
				for _, lhs := range as.Lhs {
					bind(lhs)
				}
			}
		}
		if len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				if scratchField(pass, rhs) {
					bind(as.Lhs[i])
				}
			}
		}
		return true
	})
	var stack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		var e ast.Expr
		switch x := n.(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[x]; obj == nil || !owned[obj] {
				return true
			}
			e = x
		case *ast.SelectorExpr:
			if !scratchField(pass, x) {
				return true
			}
			e = x
		default:
			return true
		}
		if len(stack) < 2 {
			return true
		}
		name := types.ExprString(e)
		switch parent := stack[len(stack)-2].(type) {
		case *ast.AssignStmt:
			// x.F = v: the struct now aliases the scratch buffer.
			for _, lhs := range storeTargets(parent, e) {
				if sel, isSel := lhs.(*ast.SelectorExpr); isSel && !scoped[namedOf(pass.Info.TypeOf(sel.X))] {
					pass.Reportf(e.Pos(), "scratch-owned slice %s stored into a struct field: it is recycled next run; copy it or transfer ownership", name)
					return true
				}
			}
		case *ast.KeyValueExpr:
			if parent.Value == e {
				reportLiteralAlias(pass, e, name, stack, scoped)
			}
		case *ast.CompositeLit:
			reportLiteralAlias(pass, e, name, stack, scoped)
		}
		return true
	})
}

// storeTargets returns the assignment targets as stores e into: the
// matching target of a one-to-one assignment, every target of a tuple
// assignment, none when e is itself a target.
func storeTargets(as *ast.AssignStmt, e ast.Expr) []ast.Expr {
	if isLHS(as, e) {
		return nil
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			if rhs == e {
				return as.Lhs[i : i+1]
			}
		}
	}
	return as.Lhs
}

// reportLiteralAlias flags a scratch-owned slice used as a composite
// literal element, unless the literal is of a run-scoped type or is itself
// a direct call argument — the engines' inline Event{Actions: actions}
// emission, which stays inside the borrow contract.
func reportLiteralAlias(pass *lint.Pass, e ast.Expr, name string, stack []ast.Node, scoped map[types.Object]bool) {
	// Walk out of the literal (through KeyValueExpr, the literal itself,
	// and an optional &) and look at what holds it.
	i := len(stack) - 2
	for i >= 0 {
		switch x := stack[i].(type) {
		case *ast.KeyValueExpr:
			i--
			continue
		case *ast.CompositeLit:
			if scoped[namedOf(pass.Info.TypeOf(x))] {
				return // the literal dies with the run
			}
			i--
			continue
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				i--
				continue
			}
		}
		break
	}
	if i >= 0 {
		if _, ok := stack[i].(*ast.CallExpr); ok {
			return // literal passed straight to a callee: borrow, not escape
		}
	}
	pass.Reportf(e.Pos(), "scratch-owned slice %s aliased into a composite literal that outlives the call: copy it or transfer ownership", name)
}

// runScopedTypes returns the package's type names declared with the
// run-scoped directive.
func runScopedTypes(pass *lint.Pass) map[types.Object]bool {
	scoped := make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				if lint.HasDirective(doc, lint.RunScopedDirective) {
					scoped[pass.Info.Defs[ts.Name]] = true
				}
			}
		}
	}
	return scoped
}

// scratchField reports whether e reads a slice field of a value whose named
// type ends in "Scratch", promoted fields included.
func scratchField(pass *lint.Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if s := pass.Info.Selections[sel]; s == nil || s.Kind() != types.FieldVal || !isSliceType(s.Type()) {
		return false
	}
	named := namedOf(pass.Info.TypeOf(sel.X))
	return named != nil && strings.HasSuffix(named.Name(), "Scratch")
}

// namedOf returns the type name of t or of the type t points to, or nil.
func namedOf(t types.Type) types.Object {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// scratchMethod reports whether call invokes a method on a receiver whose
// named type ends in "Scratch".
func scratchMethod(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	named := namedOf(pass.Info.TypeOf(sel.X))
	return named != nil && strings.HasSuffix(named.Name(), "Scratch")
}

// methodName returns the selector name call invokes, or "".
func methodName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// isLHS reports whether e is one of as's assignment targets.
func isLHS(as *ast.AssignStmt, e ast.Expr) bool {
	for _, lhs := range as.Lhs {
		if lhs == e {
			return true
		}
	}
	return false
}

// isSliceType reports whether t's underlying type is a slice.
func isSliceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
