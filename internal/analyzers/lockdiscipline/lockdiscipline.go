// Package lockdiscipline checks that struct fields documented as
// "guarded by <mutex>" are only touched while the guard is held.
//
// The concurrency contract of the sharded ingest plane lives in comments
// the compiler never reads: the ingest handle's batches and closed fields
// say "guarded by mu", and a single forgotten mu.Lock() turns the routing
// buffers into a silent data race that only a loaded production box would
// surface. This pass makes the
// comment machine-checked: any field whose doc or line comment contains
// "guarded by <name>" may only be accessed (read or written) in a function
// that has already called <base>.<name>.Lock() or .RLock() earlier in the
// same function literal or declaration.
//
// The check is deliberately flow-insensitive — it asks "does a lock
// acquisition precede this access in the source of the enclosing function?",
// not "is the lock provably held on every path?". That keeps it fast and
// false-negative-light; constructor-style access to a not-yet-shared struct
// is waived with //caesar:ignore lockdiscipline <why>.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"github.com/caesar-sketch/caesar/internal/analyzers/framework"
)

// Analyzer is the lockdiscipline pass.
var Analyzer = &framework.Analyzer{
	Name: "lockdiscipline",
	Doc:  `require fields documented "guarded by <mu>" to be accessed only after <mu>.Lock()/.RLock() in the enclosing function`,
	Run:  run,
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

func run(pass *framework.Pass) error {
	guards := collectGuardedFields(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		checkFile(pass, file, guards)
	}
	return nil
}

// collectGuardedFields maps each field object annotated "guarded by X" to
// the guard's field name X.
func collectGuardedFields(pass *framework.Pass) map[*types.Var]string {
	guards := map[*types.Var]string{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				guard := guardName(field)
				if guard == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guards[v] = guard
					}
				}
			}
			return true
		})
	}
	return guards
}

func guardName(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// checkFile walks every function body and verifies guarded-field accesses.
func checkFile(pass *framework.Pass, file *ast.File, guards map[*types.Var]string) {
	// funcStack tracks the innermost enclosing function-like node.
	var funcStack []ast.Node
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			funcStack = append(funcStack, n)
			// Recurse manually so we can pop afterwards.
			for _, child := range childrenOfFunc(n) {
				ast.Inspect(child, walk)
			}
			funcStack = funcStack[:len(funcStack)-1]
			return false
		case *ast.SelectorExpr:
			selInfo, ok := pass.TypesInfo.Selections[n]
			if !ok || selInfo.Kind() != types.FieldVal {
				return true
			}
			fieldVar, ok := selInfo.Obj().(*types.Var)
			if !ok {
				return true
			}
			guard, guarded := guards[fieldVar]
			if !guarded {
				return true
			}
			if len(funcStack) == 0 {
				pass.Reportf(n.Pos(), "access to %s (guarded by %s) outside any function", n.Sel.Name, guard)
				return true
			}
			fn := funcStack[len(funcStack)-1]
			if !lockAcquiredBefore(pass, fn, guard, n.Pos()) {
				pass.Reportf(n.Pos(),
					"access to %s (guarded by %s) without a preceding %s.Lock()/%s.RLock() in the enclosing function",
					n.Sel.Name, guard, guard, guard)
			}
		}
		return true
	}
	ast.Inspect(file, walk)
}

// childrenOfFunc returns the traversal roots inside a func decl/lit.
func childrenOfFunc(n ast.Node) []ast.Node {
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Body != nil {
			return []ast.Node{n.Body}
		}
	case *ast.FuncLit:
		if n.Body != nil {
			return []ast.Node{n.Body}
		}
	}
	return nil
}

// lockAcquiredBefore reports whether fn's body contains a call of the form
// <expr>.<guard>.Lock() or <expr>.<guard>.RLock() at a position before pos
// (and not inside a defer statement). Closures are a lock-state boundary:
// the search does not ascend above fn, because a closure may execute after
// the enclosing function released the guard.
func lockAcquiredBefore(pass *framework.Pass, fn ast.Node, guard string, pos token.Pos) bool {
	body := childrenOfFunc(fn)
	found := false
	for _, root := range body {
		ast.Inspect(root, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.DeferStmt:
				return false // deferred calls run at exit, not here
			case *ast.FuncLit:
				if n.Pos() > pos || n.End() < pos {
					return false // a different closure's locks do not count
				}
				return true
			case *ast.CallExpr:
				if n.Pos() >= pos {
					return true
				}
				if isGuardLock(n, guard) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// isGuardLock matches <expr>.<guard>.Lock() / .RLock().
func isGuardLock(call *ast.CallExpr, guard string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return false
	}
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name == guard
	case *ast.Ident:
		return x.Name == guard
	}
	return false
}
