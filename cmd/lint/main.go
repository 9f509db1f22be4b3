// Command lint runs the stdlib-only analyzers, the hermetic stand-in for
// `go vet -vettool`: ranklock (mutex discipline and typed panics,
// DESIGN.md §7) and maporder (map iteration order kept out of ordered
// output, DESIGN.md §12). Usage: lint [dir ...]. Named directories get both
// analyzers; with none, ranklock covers internal/mpi, proxy, fleet, server
// and server/cache, and maporder internal/merge, codegen, check, statics,
// core and fleet. Exits non-zero if any finding is reported.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"

	"siesta/internal/analysis/maporder"
	"siesta/internal/analysis/ranklock"
)

// analyzers pair each check with its default directories.
var analyzers = []struct {
	name string
	dirs []string
	run  func(fset *token.FileSet, files []*ast.File, pkg string) []string
}{
	{"ranklock", ranklock.DefaultDirs,
		func(fset *token.FileSet, files []*ast.File, pkg string) []string {
			return render(ranklock.RankLock.Run(&ranklock.Pass{Fset: fset, Files: files, PkgName: pkg}))
		}},
	{"maporder", []string{"internal/merge", "internal/codegen", "internal/check",
		"internal/statics", "internal/core", "internal/fleet"},
		func(fset *token.FileSet, files []*ast.File, pkg string) []string {
			return render(maporder.MapOrder.Run(&maporder.Pass{Fset: fset, Files: files, PkgName: pkg}))
		}},
}

func render[F fmt.Stringer](findings []F) []string {
	out := make([]string, len(findings))
	for i, f := range findings {
		out[i] = f.String()
	}
	return out
}

func main() {
	failed := false
	for _, a := range analyzers {
		dirs := os.Args[1:]
		if len(dirs) == 0 {
			dirs = a.dirs
		}
		for _, dir := range dirs {
			findings, err := runDir(a.run, dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %s: %v\n", a.name, dir, err)
				os.Exit(2)
			}
			for _, f := range findings {
				fmt.Println(f)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runDir parses the directory's non-test files and runs one analyzer over
// each package found, in name order.
func runDir(run func(*token.FileSet, []*ast.File, string) []string, dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, name := range sortedKeys(pkgs) {
		files := pkgs[name].Files
		parsed := make([]*ast.File, 0, len(files))
		for _, path := range sortedKeys(files) {
			parsed = append(parsed, files[path])
		}
		out = append(out, run(fset, parsed, name)...)
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
