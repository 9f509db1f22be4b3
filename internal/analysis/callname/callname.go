// Package callname is a static analyzer for the one-call-table invariant:
// an MPI call is named by its mpicall.Func constant everywhere, and its
// name is spelled only in internal/mpicall's table. A string literal whose
// whole value is a call name of that table, outside package mpicall, is
// flagged: it is a second list of calls that the table cannot keep in
// step. Code compares Func constants, and reads the name through
// Func.String where it writes one.
//
// A literal that merely contains a name is not flagged, so C format
// strings ("  MPI_Send(sbuf, ...") and MPI names outside the table
// (MPI_ERR_COMM, MPI_ANY_SOURCE, MPI_Dims_create) stay legal.
package callname

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"

	"siesta/internal/analysis"
	"siesta/internal/mpicall"
)

// CallName is the exported analyzer instance.
var CallName = &analysis.Analyzer{
	Name: "callname",
	Doc:  "flag string literals that spell a call of the mpicall table outside package mpicall",
	Run:  run,
}

// DefaultDirs are the directory trees, relative to the module root, that
// cmd/lint checks when given none and that the repo's own test keeps clean.
var DefaultDirs = []string{"internal/...", "cmd/...", "examples/..."}

func run(pass *analysis.Pass) []analysis.Finding {
	if pass.PkgName == "mpicall" {
		return nil
	}
	var out []analysis.Finding
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil {
				if _, ok := mpicall.Parse(s); ok {
					out = append(out, analysis.Finding{
						Pos:  pass.Fset.Position(lit.Pos()),
						Rule: "call-name-literal",
						Message: fmt.Sprintf("%s spells a call of the mpicall table: "+
							"compare its Func constant, and write the name through Func.String", lit.Value),
					})
				}
			}
			return true
		})
	}
	return out
}
