package ranklock

import (
	"go/ast"
	"go/parser"
	"go/token"
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
	return RankLock.Run(&analysis.Pass{Fset: fset, Files: []*ast.File{f}, PkgName: pkgName})
}

func wantRules(t *testing.T, findings []analysis.Finding, rules ...string) {
	t.Helper()
	if len(findings) != len(rules) {
		t.Fatalf("got %d findings, want %d: %v", len(findings), len(rules), findings)
	}
	for i, r := range rules {
		if findings[i].Rule != r {
			t.Errorf("finding %d: rule %q, want %q (%s)", i, findings[i].Rule, r, findings[i])
		}
	}
}

func TestLockedCallWithoutLockFlagged(t *testing.T) {
	fs := analyzeSrc(t, "mpi", `package mpi
func (w *World) failLocked(err error) {}
func oops(w *World) { w.failLocked(nil) }
`)
	wantRules(t, fs, "locked-call")
	if !strings.Contains(fs[0].Message, "failLocked") || !strings.Contains(fs[0].Message, "oops") {
		t.Errorf("message should name callee and caller: %s", fs[0].Message)
	}
}

func TestLockedCallerIsExempt(t *testing.T) {
	wantRules(t, analyzeSrc(t, "mpi", `package mpi
func (w *World) failLocked(err error) {}
func (w *World) checkDeadlockLocked() { w.failLocked(nil) }
`))
}

func TestMutexAcquirerIsExempt(t *testing.T) {
	wantRules(t, analyzeSrc(t, "mpi", `package mpi
func ok(w *World) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failLocked(nil)
}
`))
}

func TestDocCommentHolderIsExempt(t *testing.T) {
	wantRules(t, analyzeSrc(t, "mpi", `package mpi
// blockedOps snapshots state. Caller holds w.mu.
func blockedOps(w *World) { w.checkDeadlockLocked() }
`))
}

func TestLockInsideClosureExemptsFunction(t *testing.T) {
	wantRules(t, analyzeSrc(t, "mpi", `package mpi
func run(w *World) {
	go func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.failLocked(nil)
	}()
}
`))
}

func TestUntypedPanicFlagged(t *testing.T) {
	fs := analyzeSrc(t, "mpi", `package mpi
func bad() { panic("boom") }
`)
	wantRules(t, fs, "untyped-panic")
}

func TestTypedPanicsAccepted(t *testing.T) {
	wantRules(t, analyzeSrc(t, "mpi", `package mpi
func a(r *Rank) { panic(mpiErrorf(ErrComm, 0, "f", "x")) }
func b() { panic(errAborted) }
func c(err error) { panic(err) }
func d() { panic(&crashPanic{op: "f"}) }
func e() { panic(&DivergenceError{}) }
`))
}

func TestAnnotatedPanicAccepted(t *testing.T) {
	wantRules(t, analyzeSrc(t, "mpi", `package mpi
func cfgCheck() {
	panic("bad config") //ranklock:ok
}
`))
}

func TestPanicRuleScopedToRuntimePackages(t *testing.T) {
	wantRules(t, analyzeSrc(t, "merge", `package merge
func helper() { panic("not a runtime package") }
`))
}

// TestRepoIsClean runs the analyzer over the packages cmd/lint checks by
// default; this is the same gate CI's lint job enforces through cmd/lint.
func TestRepoIsClean(t *testing.T) {
	for _, dir := range DefaultDirs {
		dir = filepath.Join("../../..", dir)
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
			for _, f := range RankLock.Run(&analysis.Pass{Fset: fset, Files: files, PkgName: name}) {
				t.Errorf("%s", f)
			}
		}
	}
}
