package pythia

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestProductionReachesEveryDeclaration fails when an internal/ package
// declares something that only tests use. It type-checks every non-test
// file of the module and of the nested benchmark/ module, then walks the
// references out of the production roots:
//
//   - every main and init function and every package-level var initialiser;
//   - the root package's exported names, and the exported methods of every
//     exported root type (the facade aliases included);
//   - every declaration in benchmark/, which compiles against internals.
//
// A method also counts as reached when its type is reached and either an
// interface method of the same name is reached (a dynamic call may land on
// it) or the standard library calls it implicitly (String, Error,
// ServeHTTP, sort's Len/Less/Swap, …). Packages whose name ends in "test"
// are helpers for tests and are exempt.
//
// A declaration this test lists belongs in a _test.go file (or a *test
// helper package) if a test needs it, and nowhere if only its own test
// reaches it.
func TestProductionReachesEveryDeclaration(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports from source")
	}
	fset := token.NewFileSet()
	ld := &reachLoader{
		fset: fset,
		pkgs: map[string]*reachPkg{},
		std:  importer.ForCompiler(fset, "source", nil),
	}
	if err := filepath.WalkDir(".", ld.visit); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(ld.pkgs))
	for path := range ld.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := ld.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}

	r := newReach(ld.pkgs)
	for _, path := range paths {
		p := ld.pkgs[path]
		switch {
		case path == "pythia/benchmark" || strings.HasPrefix(path, "pythia/benchmark/"):
			for _, d := range p.decls {
				r.mark(d.key)
			}
		case path == "pythia":
			for _, name := range p.pkg.Scope().Names() {
				obj := p.pkg.Scope().Lookup(name)
				if !obj.Exported() {
					continue
				}
				r.mark(reachKey(obj))
				if _, ok := obj.(*types.TypeName); ok {
					ms := types.NewMethodSet(types.NewPointer(obj.Type()))
					for i := 0; i < ms.Len(); i++ {
						if m := ms.At(i).Obj(); m.Exported() {
							r.mark(reachKey(m))
						}
					}
				}
			}
		}
		for _, d := range p.decls {
			switch {
			case d.name == "main" && d.recv == "" && p.pkg.Name() == "main":
				r.mark(d.key)
			case d.name == "init" && d.recv == "", d.isVar:
				r.walk(p, d.node)
			}
		}
	}
	r.run()

	var unreached []string
	for _, path := range paths {
		p := ld.pkgs[path]
		if !strings.HasPrefix(path, "pythia/internal/") || strings.HasSuffix(p.pkg.Name(), "test") {
			continue
		}
		for _, d := range p.decls {
			if d.name == "_" || d.name == "init" || r.reached[d.key] {
				continue
			}
			name := p.pkg.Name() + "."
			if d.recv != "" {
				name += d.recv + "."
			}
			pos := fset.Position(d.node.Pos())
			unreached = append(unreached, name+d.name+" "+pos.Filename+":"+strconv.Itoa(pos.Line))
		}
	}
	if len(unreached) > 0 {
		t.Errorf("%d internal declarations are reached only from tests (move a test helper into _test.go or a *test package, delete the rest):\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
}

// reachDecl is one package-level declaration: a function, a method, a
// type, or one name of a var or const spec.
type reachDecl struct {
	key, name, recv string
	isVar           bool
	node            ast.Node
	pkg             *reachPkg
}

type reachPkg struct {
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
	decls []reachDecl
}

// reachLoader parses every non-test package under the working directory and
// type-checks it on demand; imports outside the module come from source.
type reachLoader struct {
	fset *token.FileSet
	pkgs map[string]*reachPkg
	std  types.Importer
}

func (ld *reachLoader) visit(path string, d fs.DirEntry, err error) error {
	if err != nil || !d.IsDir() {
		return err
	}
	base := d.Name()
	if path != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
		return filepath.SkipDir
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return err
	}
	p := &reachPkg{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) > 0 {
		ld.pkgs[filepath.ToSlash(filepath.Join("pythia", path))] = p
	}
	return nil
}

func (ld *reachLoader) Import(path string) (*types.Package, error) {
	p, ok := ld.pkgs[path]
	if !ok {
		return ld.std.Import(path)
	}
	if p.pkg != nil {
		return p.pkg, nil
	}
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: ld}
	tp, err := conf.Check(path, ld.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkg = tp
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				obj := p.info.Defs[decl.Name]
				d := reachDecl{key: reachKey(obj), name: decl.Name.Name, node: decl, pkg: p}
				if decl.Recv != nil {
					d.recv = recvName(obj)
				}
				p.decls = append(p.decls, d)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						p.decls = append(p.decls, reachDecl{key: reachKey(p.info.Defs[spec.Name]), name: spec.Name.Name, node: spec, pkg: p})
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							p.decls = append(p.decls, reachDecl{key: reachKey(p.info.Defs[id]), name: id.Name, isVar: decl.Tok == token.VAR, node: spec, pkg: p})
						}
					}
				}
			}
		}
	}
	return tp, nil
}

// reach is the worklist over declaration keys.
type reach struct {
	byKey   map[string][]reachDecl
	reached map[string]bool
	work    []string
	// ifaceNames holds every interface method name some reached code calls.
	ifaceNames map[string]bool
}

func newReach(pkgs map[string]*reachPkg) *reach {
	r := &reach{
		byKey:      map[string][]reachDecl{},
		reached:    map[string]bool{},
		ifaceNames: map[string]bool{},
	}
	for _, p := range pkgs {
		for _, d := range p.decls {
			r.byKey[d.key] = append(r.byKey[d.key], d)
		}
	}
	return r
}

func (r *reach) mark(key string) {
	if key == "" || r.reached[key] {
		return
	}
	r.reached[key] = true
	r.work = append(r.work, key)
}

// walk marks everything the syntax under n refers to.
func (r *reach) walk(p *reachPkg, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.info.Uses[id]
		if obj == nil {
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				r.ifaceNames[fn.Name()] = true
				return true
			}
		}
		r.mark(reachKey(obj))
		return true
	})
}

// implicitMethods are the methods the standard library calls through its
// own interfaces (fmt, errors, sort, container/heap, io, net/http,
// encoding/*).
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "WriteTo": true, "ReadFrom": true,
	"ServeHTTP": true, "Header": true, "WriteHeader": true, "Flush": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "GobEncode": true, "GobDecode": true,
}

func (r *reach) run() {
	for {
		for len(r.work) > 0 {
			key := r.work[len(r.work)-1]
			r.work = r.work[:len(r.work)-1]
			for _, d := range r.byKey[key] {
				r.walk(d.pkg, d.node)
			}
		}
		// A method of a reached type is reached when a dynamic call can
		// land on it.
		for key, ds := range r.byKey {
			d := ds[0]
			if d.recv == "" || r.reached[key] || !(r.ifaceNames[d.name] || implicitMethods[d.name]) {
				continue
			}
			if r.reached[strings.TrimSuffix(key, "."+d.name)] {
				r.mark(key)
			}
		}
		if len(r.work) == 0 {
			return
		}
	}
}

// reachKey names a package-level object or a method by import path:
// "path.Name" or "path.Recv.Name". Locals, fields and interface methods
// have no key.
func reachKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if types.IsInterface(recv.Type()) {
				return ""
			}
			return obj.Pkg().Path() + "." + recvName(fn) + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvName is the name of a method's receiver type, pointer and type
// arguments stripped.
func recvName(obj types.Object) string {
	t := obj.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj().Name()
	}
	return t.String()
}
