// Package maporder is a static analyzer for the pipeline's determinism
// invariant: packages whose output must be byte-identical across runs
// (merge, codegen, check, statics, core) may not let Go's randomized map
// iteration order leak into anything they emit. A `for range` over a map
// whose body appends to a slice, writes through an encoder or strings
// builder, or otherwise produces ordered output is flagged — the fix is to
// collect the keys, sort them, and iterate the sorted slice. Loops that are
// genuinely order-independent (or that sort what they collected before it
// escapes) carry a "//maporder:ok" comment on the range line.
//
// Without go/types (see package analysis) the map detection is syntactic:
// an expression is treated as a map when its declaration is visible in the
// package — a local `make(map[...])` or map literal, a
// `var`/parameter/receiver-field of map type, a package-level map var, or a
// call to a package function returning a map.
package maporder

import (
	"fmt"
	"go/ast"

	"siesta/internal/analysis"
)

// MapOrder is the exported analyzer instance.
var MapOrder = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration whose body emits ordered output in deterministic packages",
	Run:  run,
}

// writeMethods are method names whose call inside a map-range body means
// the iteration order reaches ordered output: io/encoder writes, fmt
// output, and strings.Builder/bytes.Buffer appends.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "Encode": true, "Fprintf": true, "Fprint": true,
	"Fprintln": true, "Printf": true, "Print": true, "Println": true,
}

// index is the package-wide view of syntactically map-typed names.
type index struct {
	fields   map[string]bool // struct field names declared with a map type
	results  map[string]bool // package functions returning a map
	pkgNames map[string]bool // package-level vars of map type
}

func run(pass *analysis.Pass) []analysis.Finding {
	idx := buildIndex(pass.Files)
	var out []analysis.Finding
	for _, file := range pass.Files {
		okLines := analysis.AnnotatedLines(pass.Fset, file, "maporder:ok")
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			out = append(out, checkFunc(pass, fd, idx, okLines)...)
			return false // checkFunc walks the body itself
		})
	}
	return out
}

// buildIndex records every name the package declares with a map type:
// struct fields, function results, and package-level vars.
func buildIndex(files []*ast.File) *index {
	idx := &index{
		fields:   map[string]bool{},
		results:  map[string]bool{},
		pkgNames: map[string]bool{},
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Type.Results != nil && len(d.Type.Results.List) > 0 &&
					isMapType(d.Type.Results.List[0].Type) {
					idx.results[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						if mapValueSpec(sp) {
							for _, name := range sp.Names {
								idx.pkgNames[name.Name] = true
							}
						}
					case *ast.TypeSpec:
						st, ok := sp.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, f := range st.Fields.List {
							if isMapType(f.Type) {
								for _, name := range f.Names {
									idx.fields[name.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return idx
}

// mapValueSpec reports whether a var spec declares map-typed names, either
// explicitly or via a make/map-literal initializer.
func mapValueSpec(sp *ast.ValueSpec) bool {
	if isMapType(sp.Type) {
		return true
	}
	for _, v := range sp.Values {
		if isMapExpr(v) {
			return true
		}
	}
	return false
}

func isMapType(t ast.Expr) bool {
	_, ok := t.(*ast.MapType)
	return ok
}

// isMapExpr recognizes expressions that construct a map: make(map[...]),
// a map composite literal, or a conversion to a map type.
func isMapExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return isMapType(v.Type)
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) > 0 {
			return isMapType(v.Args[0])
		}
		return isMapType(v.Fun)
	}
	return false
}

// localMaps collects the function's identifiers that are visibly map-typed:
// parameters and receivers, `var` declarations, and := assignments from a
// map constructor or a map-returning package function.
func localMaps(fd *ast.FuncDecl, idx *index) map[string]bool {
	local := map[string]bool{}
	declare := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if isMapType(f.Type) {
				for _, name := range f.Names {
					local[name.Name] = true
				}
			}
		}
	}
	declare(fd.Recv)
	declare(fd.Type.Params)
	declare(fd.Type.Results)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.DeclStmt:
			gd, ok := st.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				if sp, ok := spec.(*ast.ValueSpec); ok && mapValueSpec(sp) {
					for _, name := range sp.Names {
						local[name.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(st.Rhs) {
					continue
				}
				rhs := st.Rhs[i]
				if isMapExpr(rhs) {
					local[id.Name] = true
				} else if call, ok := rhs.(*ast.CallExpr); ok {
					if fn, ok := call.Fun.(*ast.Ident); ok && idx.results[fn.Name] {
						local[id.Name] = true
					}
				}
			}
		}
		return true
	})
	return local
}

// isMapRange reports whether the range expression is syntactically known to
// be a map.
func isMapRange(x ast.Expr, local map[string]bool, idx *index) bool {
	switch v := x.(type) {
	case *ast.Ident:
		return local[v.Name] || idx.pkgNames[v.Name]
	case *ast.SelectorExpr:
		return idx.fields[v.Sel.Name]
	case *ast.CallExpr:
		if fn, ok := v.Fun.(*ast.Ident); ok {
			return idx.results[fn.Name]
		}
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
			return idx.results[sel.Sel.Name]
		}
	}
	return isMapExpr(x)
}

// emitsOrdered finds the first order-dependent emission in a map-range
// body: a call to builtin append, or a write/encode method call. It returns
// a description of the offending call, or "".
func emitsOrdered(body *ast.BlockStmt) string {
	desc := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			if fn.Name == "append" {
				desc = "append"
				return false
			}
		case *ast.SelectorExpr:
			if writeMethods[fn.Sel.Name] {
				desc = fn.Sel.Name
				return false
			}
		}
		return true
	})
	return desc
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, idx *index, okLines map[int]bool) []analysis.Finding {
	local := localMaps(fd, idx)
	var out []analysis.Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		pos := pass.Fset.Position(rng.Pos())
		if okLines[pos.Line] {
			return true
		}
		if !isMapRange(rng.X, local, idx) {
			return true
		}
		if call := emitsOrdered(rng.Body); call != "" {
			out = append(out, analysis.Finding{
				Pos:  pos,
				Rule: "map-iteration-order",
				Message: fmt.Sprintf("map iteration order reaches ordered output (%s inside the loop) "+
					"in %s; sort the keys first, or annotate an order-independent loop with //maporder:ok",
					call, fd.Name.Name),
			})
		}
		return true
	})
	return out
}
