// Command lint runs the stdlib-only analyzers (package analysis), the
// hermetic stand-in for `go vet -vettool`: ranklock (mutex discipline and
// typed panics, DESIGN.md §7), maporder (map iteration order kept out of
// ordered output, DESIGN.md §12) and callname (MPI call names spelled only
// in the internal/mpicall table, DESIGN.md §2). Usage: lint [dir ...]; a
// directory ending in "/..." stands for every directory under it. Named
// directories get every analyzer; with none, ranklock covers internal/mpi,
// proxy, fleet, server and server/cache, maporder internal/merge, codegen,
// check, statics, core and fleet, and callname every package under
// internal, cmd and examples. Exits non-zero if any finding is reported.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"siesta/internal/analysis"
	"siesta/internal/analysis/callname"
	"siesta/internal/analysis/maporder"
	"siesta/internal/analysis/ranklock"
)

// analyzers pair each check with its default directories.
var analyzers = []struct {
	*analysis.Analyzer
	dirs []string
}{
	{ranklock.RankLock, ranklock.DefaultDirs},
	{maporder.MapOrder, []string{"internal/merge", "internal/codegen", "internal/check",
		"internal/statics", "internal/core", "internal/fleet"}},
	{callname.CallName, callname.DefaultDirs},
}

func main() {
	failed := false
	for _, a := range analyzers {
		dirs := os.Args[1:]
		if len(dirs) == 0 {
			dirs = a.dirs
		}
		for _, dir := range expand(dirs) {
			findings, err := runDir(a.Analyzer, dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %s: %v\n", a.Name, dir, err)
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

// expand replaces each "dir/..." by dir and every directory under it, in
// walk order; a tree that cannot be walked stays as dir, for runDir to
// report.
func expand(dirs []string) []string {
	var out []string
	for _, dir := range dirs {
		root, tree := strings.CutSuffix(dir, "/...")
		var walked []string
		if tree && filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				walked = append(walked, path)
			}
			return err
		}) == nil {
			out = append(out, walked...)
		} else {
			out = append(out, root)
		}
	}
	return out
}

// runDir parses the directory's non-test files and runs the analyzer over
// each package found, in name order.
func runDir(a *analysis.Analyzer, dir string) ([]analysis.Finding, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []analysis.Finding
	for _, name := range sortedKeys(pkgs) {
		files := pkgs[name].Files
		parsed := make([]*ast.File, 0, len(files))
		for _, path := range sortedKeys(files) {
			parsed = append(parsed, files[path])
		}
		out = append(out, a.Run(&analysis.Pass{Fset: fset, Files: parsed, PkgName: name})...)
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
