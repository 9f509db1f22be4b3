// Package ranklock is a static analyzer for two concurrency-and-failure
// invariants of the runtime and the services around it:
//
//  1. Functions whose name ends in "Locked" require the caller to hold a
//     mutex. A call to one is flagged unless the enclosing function
//     (a) itself ends in "Locked", (b) acquires a mutex in its own body, or
//     (c) is documented as running under the lock ("caller holds ... mu").
//
//  2. In the mpi and proxy packages a panic must carry a typed value the
//     World.Run / proxy recovery handlers understand (*MPIError via
//     mpiErrorf, crashPanic, DivergenceError, errAborted or a wrapped err) —
//     a plain-string panic would be misreported as an internal bug of the
//     harness. Intentional exceptions carry a "//ranklock:ok" comment on
//     the same line.
//
// Findings carry the rule "locked-call" or "untyped-panic".
package ranklock

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"

	"siesta/internal/analysis"
)

// RankLock is the exported analyzer instance.
var RankLock = &analysis.Analyzer{
	Name: "ranklock",
	Doc:  "check mutex discipline for *Locked calls and typed panics in the runtime",
	Run:  run,
}

// DefaultDirs are the directories, relative to the module root, that
// cmd/lint checks when given none and that the repo's own test keeps clean.
var DefaultDirs = []string{"internal/mpi", "internal/proxy", "internal/fleet",
	"internal/server", "internal/server/cache"}

// panicPackages are the packages where rule 2 (typed panics) applies: their
// goroutine recovery handlers only understand typed panic values.
var panicPackages = map[string]bool{"mpi": true, "proxy": true}

// holdsLockDoc matches doc comments that declare the lock is already held,
// e.g. "Caller holds w.mu." or "callers hold the world mu".
var holdsLockDoc = regexp.MustCompile(`(?i)caller[s]? (must )?hold[s]? .*mu`)

func run(pass *analysis.Pass) []analysis.Finding {
	var out []analysis.Finding
	for _, file := range pass.Files {
		okLines := analysis.AnnotatedLines(pass.Fset, file, "ranklock:ok")
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			out = append(out, checkFunc(pass, fd, okLines)...)
			return false // checkFunc walks the body itself
		})
	}
	return out
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, okLines map[int]bool) []analysis.Finding {
	var out []analysis.Finding
	holdsLock := strings.HasSuffix(fd.Name.Name, "Locked") ||
		(fd.Doc != nil && holdsLockDoc.MatchString(fd.Doc.Text())) ||
		acquiresMutex(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pos := pass.Fset.Position(call.Pos())
		if okLines[pos.Line] {
			return true
		}
		if name := calleeName(call); strings.HasSuffix(name, "Locked") && !holdsLock {
			out = append(out, analysis.Finding{
				Pos:  pos,
				Rule: "locked-call",
				Message: fmt.Sprintf("%s requires a mutex held, but %s neither holds it "+
					"(no Locked suffix, no lock-holding doc comment) nor acquires a mutex",
					name, fd.Name.Name),
			})
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" &&
			panicPackages[pass.PkgName] && len(call.Args) == 1 && !typedPanicArg(call.Args[0]) {
			out = append(out, analysis.Finding{
				Pos:  pos,
				Rule: "untyped-panic",
				Message: fmt.Sprintf("panic in package %s must carry a typed value "+
					"(*MPIError via mpiErrorf, crashPanic, DivergenceError, errAborted or err); "+
					"annotate intentional exceptions with //ranklock:ok", pass.PkgName),
			})
		}
		return true
	})
	return out
}

// acquiresMutex reports whether the body contains a call of the form
// <expr>.Lock() — the repo idiom w.mu.Lock() — meaning the function manages
// the critical section itself.
func acquiresMutex(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" {
			found = true
			return false
		}
		return true
	})
	return found
}

// calleeName extracts the called function's bare name, or "".
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// typedPanicArg reports whether the panic argument is one of the values the
// runtime's recovery handlers understand.
func typedPanicArg(arg ast.Expr) bool {
	switch a := arg.(type) {
	case *ast.Ident:
		// errAborted, or an error variable being re-raised.
		return a.Name == "errAborted" || a.Name == "err" || strings.HasPrefix(a.Name, "err")
	case *ast.CallExpr:
		// mpiErrorf(...) constructs *MPIError.
		return calleeName(a) == "mpiErrorf"
	case *ast.UnaryExpr:
		if a.Op != token.AND {
			return false
		}
		cl, ok := a.X.(*ast.CompositeLit)
		if !ok {
			return false
		}
		name := ""
		switch t := cl.Type.(type) {
		case *ast.Ident:
			name = t.Name
		case *ast.SelectorExpr:
			name = t.Sel.Name
		}
		return name == "crashPanic" || strings.HasSuffix(name, "Error")
	}
	return false
}
