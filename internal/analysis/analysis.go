// Package analysis holds the shapes the repo's stdlib-only analyzers
// share. They mirror golang.org/x/tools/go/analysis (an Analyzer whose Run
// goes over a Pass, one package's parsed files) but depend only on the
// standard library, so they build hermetically; cmd/lint is the standalone
// driver CI runs in place of `go vet -vettool`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Finding is one reported violation.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Message)
}

// Pass bundles one package's parsed files.
type Pass struct {
	Fset    *token.FileSet
	Files   []*ast.File
	PkgName string
}

// AnnotatedLines collects the lines of file that carry a comment
// containing marker, such as "maporder:ok": the analyzers accept what
// such a line does.
func AnnotatedLines(fset *token.FileSet, file *ast.File, marker string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, marker) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// Analyzer describes one checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) []Finding
}
