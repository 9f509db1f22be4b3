package callname

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
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
	return CallName.Run(&analysis.Pass{Fset: fset, Files: []*ast.File{f}, PkgName: pkgName})
}

func wantFindings(t *testing.T, findings []analysis.Finding, n int) {
	t.Helper()
	if len(findings) != n {
		t.Fatalf("got %d findings, want %d: %v", len(findings), n, findings)
	}
	for _, f := range findings {
		if f.Rule != "call-name-literal" {
			t.Errorf("rule %q, want call-name-literal (%s)", f.Rule, f)
		}
	}
}

// TestSeededSwitchBug seeds the list the analyzer exists to forbid: a
// layer deciding what a call is by its own switch over names.
func TestSeededSwitchBug(t *testing.T) {
	fs := analyzeSrc(t, "obs", `package obs
func category(fn string) string {
	switch fn {
	case "MPI_Send", "MPI_Recv":
		return "p2p"
	case `+"`MPI_Wait`"+`:
		return "sync"
	}
	return "coll"
}
`)
	wantFindings(t, fs, 3)
	if !strings.Contains(fs[0].Message, `"MPI_Send"`) || fs[0].Pos.Line != 4 {
		t.Errorf("finding should name the literal and its line: %s", fs[0])
	}
}

// TestSeededMapAndCompareBug: a lookup set and an equality test against a
// name are lists too, and so is the virtual MPI_Compute call.
func TestSeededMapAndCompareBug(t *testing.T) {
	wantFindings(t, analyzeSrc(t, "codegen", `package codegen
var blocking = map[string]bool{"MPI_Bcast": true}
func isCompute(fn string) bool { return fn == "MPI_Compute" }
`), 2)
}

// TestNonCallNamesAccepted: C source text that contains a call, MPI names
// outside the table and partial names are not call names.
func TestNonCallNamesAccepted(t *testing.T) {
	wantFindings(t, analyzeSrc(t, "codegen", `package codegen
import "fmt"
const send = "  MPI_Send(sbuf, %d, MPI_BYTE, %s, %d, %s);\n"
var names = []string{"MPI_ERR_COMM", "MPI_ANY_SOURCE", "MPI_PROC_NULL", "MPI_Dims_create", "MPI_File", "MPI_Win_lock"}
func describe(c int) string { return fmt.Sprintf("MPI_Compute(cluster=%d)", c) }
`), 0)
}

// TestTablePackageExempt: the table itself spells every name.
func TestTablePackageExempt(t *testing.T) {
	wantFindings(t, analyzeSrc(t, "mpicall", `package mpicall
var table = []string{"MPI_Send", "MPI_Recv"}
`), 0)
}

// TestRepoIsClean runs the analyzer over every package cmd/lint checks by
// default; this is the same gate CI's lint job enforces through cmd/lint.
func TestRepoIsClean(t *testing.T) {
	for _, root := range DefaultDirs {
		root = filepath.Join("../../..", strings.TrimSuffix(root, "/..."))
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				return err
			}
			for name, pkg := range pkgs {
				var files []*ast.File
				for _, f := range pkg.Files {
					files = append(files, f)
				}
				for _, f := range CallName.Run(&analysis.Pass{Fset: fset, Files: files, PkgName: name}) {
					t.Errorf("%s", f)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", root, err)
		}
	}
}
