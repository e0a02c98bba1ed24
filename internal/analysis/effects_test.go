package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typecheckSrc parses and type-checks one self-contained source file
// (stdlib imports only) for the helper tests below.
func typecheckSrc(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: nil}
	pkg, err := conf.Check("x", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, info, pkg
}

func TestReferenceLike(t *testing.T) {
	_, _, info, _ := typecheckSrc(t, `package x
type scalarOnly struct{ a int; b [4]byte; s string }
type carrier struct{ p *int }
var (
	vInt    int
	vStr    string
	vSlice  []byte
	vMap    map[string]int
	vChan   chan int
	vFunc   func()
	vPtr    *int
	vPlain  scalarOnly
	vNested carrier
	vArr    [3]*int
)
`)
	wants := map[string]bool{
		"vInt": false, "vStr": false, "vPlain": false,
		"vSlice": true, "vMap": true, "vChan": true, "vFunc": true,
		"vPtr": true, "vNested": true, "vArr": true,
	}
	found := 0
	for id, obj := range info.Defs {
		want, interesting := wants[id.Name]
		if !interesting || obj == nil {
			continue
		}
		found++
		if got := referenceLike(obj.Type()); got != want {
			t.Errorf("referenceLike(%s %s) = %v, want %v", id.Name, obj.Type(), got, want)
		}
	}
	if found != len(wants) {
		t.Fatalf("checked %d of %d vars", found, len(wants))
	}
}

func TestPathBase(t *testing.T) {
	// pathBase must peel any store destination down to its base
	// identifier so escape locality is judged on the right object.
	cases := []struct {
		expr string
		want string // "" = no identifier base
	}{
		{"x", "x"},
		{"x.f", "x"},
		{"(*x).f[i]", "x"},
		{"x.f[i].g", "x"},
		{"x.(T).f", "x"},
		{"f().g", ""},
	}
	for _, tc := range cases {
		e, err := parser.ParseExpr(tc.expr)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		id, ok := pathBase(e)
		if tc.want == "" {
			if ok {
				t.Errorf("pathBase(%s) = %v, want none", tc.expr, id)
			}
			continue
		}
		if !ok || id.Name != tc.want {
			t.Errorf("pathBase(%s) = %v (%v), want %s", tc.expr, id, ok, tc.want)
		}
	}
}

func TestStaticCalleeResolution(t *testing.T) {
	_, f, info, _ := typecheckSrc(t, `package x
type r struct{}
func (r) m() {}
func plain() {}
func use(fn func()) {
	plain()
	r{}.m()
	fn()
}
`)
	var got []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := staticCallee(info, call); fn != nil {
			got = append(got, fn.Name())
		} else {
			got = append(got, "<dynamic>")
		}
		return true
	})
	want := []string{"plain", "m", "<dynamic>"}
	if len(got) != len(want) {
		t.Fatalf("resolved %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("call %d resolved to %q, want %q", i, got[i], want[i])
		}
	}
}

// TestKernelMethodTablesComplete guards the fail-closed contract: every
// method of segment.Representation, kernel.Object and kernel.Call must be
// listed in exactly one purity table (Representation's mutating set is implicit:
// anything unlisted). A new kernel method that is genuinely read-only
// gets added to a table here deliberately; until then accesspurity
// treats it as mutating.
func TestKernelMethodTablesComplete(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	check := func(pkgDir, typeName string, tables ...map[string]bool) {
		t.Helper()
		pkg, err := loader.Import("eden/internal/" + pkgDir)
		if err != nil {
			t.Fatalf("load %s: %v", pkgDir, err)
		}
		obj := pkg.Scope().Lookup(typeName)
		if obj == nil {
			t.Fatalf("%s.%s not found", pkgDir, typeName)
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			t.Fatalf("%s.%s is not a named type", pkgDir, typeName)
		}
		for i := 0; i < named.NumMethods(); i++ {
			name := named.Method(i).Name()
			if !named.Method(i).Exported() {
				continue
			}
			n := 0
			for _, table := range tables {
				if table[name] {
					n++
				}
			}
			if n > 1 {
				t.Errorf("%s.%s.%s appears in %d purity tables", pkgDir, typeName, name, n)
			}
		}
	}
	// Object and Call must be fully classified (in a table, or one of the
	// specially-analyzed accessors). An unclassified Object method is
	// treated as mutating by walkKernelMethod, which is safe but should
	// be a decision, not an accident; Self is Call's one accessor.
	kernelPkg, err := loader.Import("eden/internal/kernel")
	if err != nil {
		t.Fatal(err)
	}
	classified := func(typeName string, special map[string]bool, tables ...map[string]bool) {
		t.Helper()
		named := kernelPkg.Scope().Lookup(typeName).Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if !m.Exported() || special[m.Name()] {
				continue
			}
			listed := false
			for _, table := range tables {
				listed = listed || table[m.Name()]
			}
			if !listed {
				t.Errorf("kernel.%s.%s is in no purity table; classify it deliberately", typeName, m.Name())
			}
		}
	}
	classified("Object", map[string]bool{"View": true, "SpawnBehavior": true}, objectPureMethods, objectMutatingMethods)
	classified("Call", map[string]bool{"Self": true}, callPureMethods)
	check("segment", "Representation", repPureMethods)
	check("kernel", "Object", objectPureMethods, objectMutatingMethods)
	check("kernel", "Call", callPureMethods)
}
