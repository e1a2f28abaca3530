// Package errcheck is a lightweight dropped-error checker scoped to this
// module's own APIs.
//
// The repository's error contract is that fallible operations — Rotate,
// Merge, WriteCounters, trace loading, and the snapshot layer's WriteTo,
// ReadFrom, SnapshotFile, and ReadSketch/ReadShardedWindow family — report
// failure through their error result, never through state the caller must
// remember to inspect. Calling one as a bare statement discards the only
// failure signal: a dropped ShardedWindow.RotateContext error hides a seal
// the deadline cut short, and a dropped Sketch.WriteTo error leaves a
// truncated snapshot that the query process will reject hours later. This
// pass flags any expression statement that calls a function
// declared in this module and ignores a returned error. It deliberately
// ignores third-party and stdlib callees (that is classic errcheck's much
// noisier job) and `defer`red calls, where dropping a cleanup error is an
// accepted idiom.
package errcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/caesar-sketch/caesar/internal/analyzers/framework"
)

// ModulePath scopes the pass: only callees declared under this module are
// checked.
const ModulePath = "github.com/caesar-sketch/caesar"

// Analyzer is the errcheck pass.
var Analyzer = &framework.Analyzer{
	Name: "errcheck",
	Doc:  "flag statements that drop an error returned by one of this module's own functions",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || !inModule(pass, fn) {
				return true
			}
			if returnsError(fn) {
				pass.Reportf(call.Pos(),
					"result of %s.%s contains an error that is silently dropped; handle it or assign it explicitly",
					fn.Pkg().Name(), fn.Name())
			}
			return true
		})
	}
	return nil
}

// calleeFunc resolves the called function or method object, if any.
func calleeFunc(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

func inModule(pass *framework.Pass, fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	return strings.HasPrefix(pkg.Path(), ModulePath) ||
		(pass.Pkg != nil && pkg.Path() == pass.Pkg.Path())
}

var errorType = types.Universe.Lookup("error").Type()

func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}
