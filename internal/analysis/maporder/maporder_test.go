package maporder

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"

	"siesta/internal/analysis"
)

func analyzeSrc(t *testing.T, pkgName, src string) []analysis.Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return MapOrder.Run(&analysis.Pass{Fset: fset, Files: []*ast.File{f}, PkgName: pkgName})
}

func wantFindings(t *testing.T, findings []analysis.Finding, n int) {
	t.Helper()
	if len(findings) != n {
		t.Fatalf("got %d findings, want %d: %v", len(findings), n, findings)
	}
	for _, f := range findings {
		if f.Rule != "map-iteration-order" {
			t.Errorf("rule %q, want map-iteration-order (%s)", f.Rule, f)
		}
	}
}

// TestSeededEncoderBug seeds the exact bug the analyzer exists for: a
// deterministic-output package ranging over a map straight into an encoder.
func TestSeededEncoderBug(t *testing.T) {
	fs := analyzeSrc(t, "merge", `package merge
func (p *Program) encodeStats(b *builder, stats map[string]int) {
	for name, n := range stats {
		b.WriteString(name)
		b.WriteByte(byte(n))
	}
}
`)
	wantFindings(t, fs, 1)
	if !strings.Contains(fs[0].Message, "WriteString") || !strings.Contains(fs[0].Message, "encodeStats") {
		t.Errorf("message should name the write and the function: %s", fs[0].Message)
	}
}

func TestSeededAppendBug(t *testing.T) {
	fs := analyzeSrc(t, "statics", `package statics
func flatten(agg map[int]int64) []int64 {
	var out []int64
	for _, v := range agg {
		out = append(out, v)
	}
	return out
}
`)
	wantFindings(t, fs, 1)
	if !strings.Contains(fs[0].Message, "append") {
		t.Errorf("message should name append: %s", fs[0].Message)
	}
}

func TestAnnotatedLoopAccepted(t *testing.T) {
	wantFindings(t, analyzeSrc(t, "check", `package check
import "sort"
func sortedKeys(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m { //maporder:ok — sorted below
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
`), 0)
}

// Order-independent bodies — counting, map-to-map transfer — are not
// emissions and must not be flagged.
func TestOrderIndependentBodyAccepted(t *testing.T) {
	wantFindings(t, analyzeSrc(t, "core", `package core
func total(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}
func invert(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}
`), 0)
}

// Slices are ordered; ranging one into an encoder is fine.
func TestSliceRangeAccepted(t *testing.T) {
	wantFindings(t, analyzeSrc(t, "codegen", `package codegen
func emit(b *builder, rows []string) {
	for _, r := range rows {
		b.WriteString(r)
	}
}
`), 0)
}

// Map-typed struct fields and map-returning functions are recognized even
// though no local declaration is in scope.
func TestFieldAndCallRangesRecognized(t *testing.T) {
	fs := analyzeSrc(t, "merge", `package merge
type table struct {
	byName map[string]int
}
func index() map[string]int { return nil }
func (t *table) dump(b *builder) {
	for name := range t.byName {
		b.WriteString(name)
	}
	var out []string
	for name := range index() {
		out = append(out, name)
	}
}
`)
	wantFindings(t, fs, 2)
}

// TestDeterministicPackagesAreClean runs the analyzer over the real
// deterministic-output packages; this is the same gate CI's lint job
// enforces through cmd/lint.
func TestDeterministicPackagesAreClean(t *testing.T) {
	for _, dir := range []string{"../../merge", "../../codegen", "../../check", "../../statics", "../../core"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			var files []*ast.File
			for _, f := range pkg.Files {
				files = append(files, f)
			}
			for _, f := range MapOrder.Run(&analysis.Pass{Fset: fset, Files: files, PkgName: name}) {
				t.Errorf("%s", f)
			}
		}
	}
}
