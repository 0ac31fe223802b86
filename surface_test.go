package leaps_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// harness is the reason for the differential harness's entry points.
const harness = "the differential harness and its program families: the engines' differential tests are its only callers"

// surfaceAllow lists the exported names under internal/ and cmd/ that
// stay although no non-test file outside their own mentions them, one
// reason each: invariant checkers and hooks that tests of another
// package hold behaviour through. Keys are "<dir>.<Name>" or
// "<dir>.(<Recv>).<Name>".
var surfaceAllow = map[string]string{
	"internal/difftest.Check":                     harness,
	"internal/difftest.Fixed":                     harness,
	"internal/difftest/family.Programs":           harness,
	"internal/difftest/family.Edges":              harness,
	"internal/difftest/family.LatchSeeds":         harness,
	"internal/difftest/family.HostCases":          harness,
	"internal/difftest/family.Fuzz":               harness,
	"internal/difftest/family.(Host).Row":         harness,
	"internal/difftest/family.(Host).ReadBack":    harness,
	"internal/core.NewSharedMemory":               "shared memory stays (ISSUE 21c): harness's shared differential, fuzzer and trace test build theirs with it",
	"internal/obs.(AttributionReport).Row":        "harness's and obs's attribution tests look one strategy's row up",
	"internal/rir.Pairs":                          "compiled's TestFlatPairsMatchUnfused walks every fusable pair the pass knows",
	"internal/validate.ErrInvalid":                "tiered's cold-start test matches an ill-typed module's error with errors.Is",
	"internal/validate.Stats":                     "the validate-once tests of tiered and compiled count walks with it",
	"internal/vmm.(AddressSpace).CheckInvariants": "VMA-tree invariant checker, run by vmm's and mem's tests after every mutation sequence",
	"internal/vmm.(Mapping).CheckAccess":          "page-state inspector: mem's tests hold 'a byte is non-zero only inside a committed page' with it",
	"internal/vmm.(Mapping).CommittedBytes":       "page-state inspector: mem's tests count what a strategy committed",
	"internal/workloads.SharedShape":              "geometry of the shared-grow workload, for harness's shared-memory fixture",
	"internal/workloads.SharedWorkNative":         "native twin of one shared-grow lane, for harness's shared-memory fixture",
}

// surfaceImplicit are method names the language and the standard
// library call through interfaces this repository never has to spell.
var surfaceImplicit = map[string]string{
	"Error":       "the error interface",
	"Unwrap":      "errors.Is and errors.As walk it (a WASI exit inside a trap)",
	"MarshalText": "encoding/json: mem.Strategy prints by name in leapsbench -json",
}

// surfaceAPIDir is the public package whose type aliases re-export an
// internal type together with its method set: gen is the authoring
// DSL, so every exported method of a wasmgen type it aliases is API
// whether or not an example happens to call it.
const surfaceAPIDir = "gen"

const surfaceModule = "leapsandbounds/"

// TestNoOrphanSurface keeps the surface census true: every exported
// top-level identifier and method declared under internal/ and cmd/
// is mentioned by a non-test file other than the one declaring it, or
// is on surfaceAllow. Matching is by name with go/parser only — a
// top-level name by its package (bare in the package's other files,
// import-qualified elsewhere), a method by any x.Name selector or
// interface method of that name — so a name shared with something in
// use can hide an orphan, but a name in use is never reported.
func TestNoOrphanSurface(t *testing.T) {
	type decl struct {
		pos       token.Position
		dir, file string
		key, name string
		recv      string // "" for a top-level identifier
		isType    bool
	}
	var (
		fset      = token.NewFileSet()
		decls     []decl
		bare      = map[string]map[string][]string{} // dir → name → files
		qualified = map[string]bool{}                // "<dir>.<Name>" via an import
		selected  = map[string][]string{}            // method-like name → files
		aliased   = map[string]bool{}                // "<dir>.<Type>" re-exported by surfaceAPIDir
		inSig     = map[string]bool{}                // "<file> <name>": see sig below
	)
	mention := func(m map[string][]string, name, file string) {
		if fs := m[name]; len(fs) == 0 || fs[len(fs)-1] != file {
			m[name] = append(fs, file)
		}
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		file := filepath.ToSlash(p)
		dir := path.Dir(file)
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return err
		}
		imports := map[string]string{} // local package name → import path
		for _, im := range f.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		repoDir := func(x ast.Expr) (string, bool) {
			// Obj is set on an identifier the parser resolved inside the
			// file: a local that shadows the package name.
			id, ok := x.(*ast.Ident)
			if !ok || id.Obj != nil || imports[id.Name] == "" {
				return "", false
			}
			return strings.TrimPrefix(imports[id.Name], surfaceModule), true
		}
		if bare[dir] == nil {
			bare[dir] = map[string][]string{}
		}
		census := strings.HasPrefix(file, "internal/") || strings.HasPrefix(file, "cmd/")
		add := func(id *ast.Ident, recv string, isType bool) {
			if !census || !id.IsExported() {
				return
			}
			key := dir + "." + id.Name
			if recv != "" {
				key = dir + ".(" + recv + ")." + id.Name
			}
			decls = append(decls, decl{fset.Position(id.Pos()), dir, file, key, id.Name, recv, isType})
		}
		// sig records the names an exported declaration spells outside
		// any function body: its signature, its fields, its declared
		// type. A type named there is part of that declaration's API
		// even where no caller ever writes the type's name
		// (`s := compiled.Stats(); s.ChecksEmitted`).
		sig := func(exported bool, nodes ...ast.Node) {
			for _, n := range nodes {
				if !exported || n == nil {
					continue
				}
				ast.Inspect(n, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						inSig[file+" "+id.Name] = true
					}
					return true
				})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil && len(d.Recv.List) == 1 {
					recv = recvName(d.Recv.List[0].Type)
				}
				if d.Recv == nil || recv != "" {
					add(d.Name, recv, false)
				}
				sig(d.Name.IsExported(), d.Type)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "", true)
						sig(s.Name.IsExported(), s.Type)
						if sel, ok := s.Type.(*ast.SelectorExpr); ok && dir == surfaceAPIDir && s.Assign.IsValid() {
							if pkg, ok := repoDir(sel.X); ok {
								aliased[pkg+"."+sel.Sel.Name] = true
							}
						}
					case *ast.ValueSpec:
						for i, id := range s.Names {
							add(id, "", false)
							sig(id.IsExported(), s.Type)
							// `var T = [256]BinFn{…}` declares its type in the value.
							if i < len(s.Values) {
								if lit, ok := s.Values[i].(*ast.CompositeLit); ok {
									sig(id.IsExported(), lit.Type)
								}
							}
						}
					}
				}
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// The declared name is not a mention of anything; a
				// method's name would otherwise read as a bare use of a
				// top-level identifier spelled the same.
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if pkg, ok := repoDir(n.X); ok {
					qualified[pkg+"."+n.Sel.Name] = true
					return false
				}
				mention(selected, n.Sel.Name, file)
				ast.Inspect(n.X, visit)
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						mention(selected, id.Name, file)
					}
				}
			case *ast.Ident:
				mention(bare[dir], n.Name, file)
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	elsewhere := func(files []string, own string) bool {
		for _, f := range files {
			if f != own {
				return true
			}
		}
		return false
	}
	used := map[string]bool{}
	var orphans []string
	for _, d := range decls {
		switch {
		case surfaceAllow[d.key] != "":
			used[d.key] = true
		case d.recv != "":
			if surfaceImplicit[d.name] == "" && !aliased[d.dir+"."+d.recv] && !elsewhere(selected[d.name], d.file) {
				orphans = append(orphans, d.pos.String()+" "+d.key)
			}
		default:
			if !qualified[d.key] && !elsewhere(bare[d.dir][d.name], d.file) && !(d.isType && inSig[d.file+" "+d.name]) {
				orphans = append(orphans, d.pos.String()+" "+d.key)
			}
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s: exported, but no non-test file outside its own mentions it", o)
	}
	for key := range surfaceAllow {
		if !used[key] {
			t.Errorf("surfaceAllow[%q] matches no declaration: remove the entry", key)
		}
	}
}

// recvName returns the receiver's type name, through a pointer and
// type parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
