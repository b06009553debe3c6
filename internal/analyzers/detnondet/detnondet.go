// Package detnondet forbids nondeterminism sources inside the simulator
// core (internal/{machine,memory,view,core}). Executions must be pure
// functions of the strategy's decision sequence — that is what makes
// replay, golden traces, shrinking, and prefix-partitioned parallel
// exploration sound — so the core may not read wall clocks, draw from
// the global math/rand stream, iterate maps in observable order, or
// spawn goroutines or coroutines outside the lockstep scheduler.
package detnondet

import (
	"go/ast"
	"go/types"

	"compass/internal/analyzers/lint"
)

// Analyzer is the detnondet pass.
var Analyzer = &lint.Analyzer{
	Name: "detnondet",
	Doc: `forbid nondeterminism sources in the simulator core

Inside internal/{machine,memory,view,core}, executions must be
deterministic functions of strategy decisions. Forbidden: time.Now/
Since/Until (wall clock), package-level math/rand functions (process-
global stream; seeded *rand.Rand via rand.New(rand.NewSource(seed)) is
fine), iteration over maps unless the enclosing function is marked
//compass:orderinsensitive, and go statements and iter.Pull/iter.Pull2
calls (a coroutine is a second thread of control) unless the enclosing
function is marked //compass:scheduler.`,
	Run: run,
}

// clockFuncs are the wall-clock reads in package time.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// coroutineCtors are the package iter functions that start a coroutine.
var coroutineCtors = map[string]bool{"Pull": true, "Pull2": true}

// seededCtors are the math/rand entry points that build an explicitly
// seeded generator and are therefore deterministic.
var seededCtors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		if lint.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		file := file
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, file, n)
			case *ast.RangeStmt:
				checkRange(pass, file, n)
			case *ast.GoStmt:
				if !lint.FuncDirective(file, n.Pos(), "scheduler") {
					pass.Reportf(n.Pos(), "goroutine spawned outside the scheduler; all concurrency in the core must go through the lockstep scheduler (mark the scheduler itself //compass:scheduler)")
				}
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *lint.Pass, file *ast.File, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) { // explicit instantiation, e.g. iter.Pull[int]
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	obj := lint.PkgFunc(pass.TypesInfo, fun)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch lint.ObjPkgPath(obj) {
	case "time":
		if clockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "call to time.%s: wall-clock reads make executions irreproducible; derive timing from step counts", fn.Name())
		}
	case "iter":
		if coroutineCtors[fn.Name()] && !lint.FuncDirective(file, call.Pos(), "scheduler") {
			pass.Reportf(call.Pos(), "coroutine started by iter.%s outside the scheduler; all concurrency in the core must go through the lockstep scheduler (mark the scheduler itself //compass:scheduler)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededCtors[fn.Name()] {
			pass.Reportf(call.Pos(), "call to global math/rand %s: the process-global stream breaks replay; use a seeded *rand.Rand owned by the strategy", fn.Name())
		}
	}
}

func checkRange(pass *lint.Pass, file *ast.File, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if lint.FuncDirective(file, rs.Pos(), "orderinsensitive") {
		return
	}
	pass.Reportf(rs.Pos(), "iteration over map: order is nondeterministic; sort the keys or mark the function //compass:orderinsensitive after checking no decision depends on visit order")
}
