package erms_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreadAllowlist names the declarations no program of the repository reads
// that stay anyway, each with its reason. It may hold only three kinds of
// entry: a function ROADMAP item 1 will give a reader (or delete), a test
// accessor or oracle the tests of another package use (a _test.go file cannot
// export one), and the zero value of an enum. An entry that a program comes
// to read, or that no longer exists, fails the test like an unread
// declaration does.
var unreadAllowlist = map[string]string{
	"trace.Coordinator.ExtractGraph":     "ROADMAP item 1(d): plan from the call graph the traces show",
	"trace.Coordinator.WorkloadEstimate": "ROADMAP item 1(d): plan from the workload the traces show",
	"scaling.EndToEndModelLatency":       "ROADMAP item 1(a): model-predicted vs observed end-to-end latency",

	"graph.Graph.NodesFor":                "core/plan_oracle_test.go builds the PlanScheme oracle's inputs with it",
	"multiplex.IncrementalPlanner.Groups": "core/plan_oracle_test.go checks clean groups against the sharing partition",
	"metrics.Store.Range":                 "core and obs tests read stored series back",
	"stats.Reservoir.Values":              "sim's partition fingerprints hash every latency reservoir",

	"sim.RouteRoundRobin": "the iota zero value of Routing: without it RouteP2C becomes the default",
}

// TestEveryDeclarationHasAReader keeps every package-level declaration of the
// repository reachable from a program. It type-checks every non-test package
// of the module and of bench/ — one build, files selected by their build
// constraints as `go build` would — and walks references from each main,
// every init and every package-level var initializer of an imported package.
// A method of a reached type counts as reached when some interface of the
// program has a method of that name (fmt calls String, sort calls Less,
// net/http calls ServeHTTP). `var _ I = T{}` assertions are neither roots
// nor reported. What stays unreached is read only by tests, or by nothing:
// delete it, move it into the _test.go that uses it as an oracle, or
// allowlist it above with its reason.
func TestEveryDeclarationHasAReader(t *testing.T) {
	p, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	w := p.newWalker()
	w.roots()
	fromPrograms := maps.Clone(w.reached)
	// What an allowlisted declaration uses is covered by its entry.
	byName := map[string]types.Object{}
	for obj, d := range p.decls {
		byName[d.name] = obj
	}
	for name := range unreadAllowlist {
		switch obj, ok := byName[name]; {
		case !ok:
			t.Errorf("allowlisted %s no longer exists: drop it from unreadAllowlist", name)
		case fromPrograms[obj]:
			t.Errorf("allowlisted %s has a reader now: drop it from unreadAllowlist", name)
		default:
			w.reach(obj)
		}
	}
	w.drain()

	var unread []string
	lines := 0
	for obj, d := range p.decls {
		if !w.reached[obj] {
			unread = append(unread, d.name+" ("+d.where+")")
			lines += d.lines
		}
	}
	if len(unread) > 0 {
		sort.Strings(unread)
		t.Errorf("%d declarations (%d lines) have no reader in any program of the repository;\n"+
			"delete them, move them into the _test.go that uses them, or allowlist them with a reason:\n\t%s",
			len(unread), lines, strings.Join(unread, "\n\t"))
	}
}

// module is the module path of the repository root; bench/ is module
// erms/bench, so one prefix maps every directory to its import path.
const module = "erms"

type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// decl is one package-level declaration: a function, a method, a type, or
// one name of a const or var spec.
type decl struct {
	pkg   *pkg
	node  ast.Node
	name  string // short package path "." [receiver type "."] name
	where string // file:line
	lines int    // including the doc comment
}

type program struct {
	fset  *token.FileSet
	pkgs  map[string]*pkg
	std   types.Importer
	decls map[types.Object]*decl
}

func loadProgram(root string) (*program, error) {
	p := &program{fset: token.NewFileSet(), pkgs: map[string]*pkg{}, decls: map[types.Object]*decl{}}
	p.std = importer.ForCompiler(p.fset, "source", nil)
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if name := e.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return p.parseDir(root, path)
	})
	if err != nil {
		return nil, err
	}
	for _, pk := range p.pkgs {
		if _, err := p.check(pk); err != nil {
			return nil, err
		}
	}
	for _, pk := range p.pkgs {
		p.collect(pk)
	}
	return p, nil
}

func (p *program) parseDir(root, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return err
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return err
	}
	path := module
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	p.pkgs[path] = &pkg{path: path, files: files}
	return nil
}

// Import resolves module packages to their checked sources and everything
// else through the standard library's source importer.
func (p *program) Import(path string) (*types.Package, error) {
	if pk, ok := p.pkgs[path]; ok {
		return p.check(pk)
	}
	return p.std.Import(path)
}

func (p *program) check(pk *pkg) (*types.Package, error) {
	if pk.types != nil {
		return pk.types, nil
	}
	pk.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: p}
	tp, err := conf.Check(pk.path, p.fset, pk.files, pk.info)
	if err != nil {
		return nil, err
	}
	pk.types = tp
	return tp, nil
}

// collect records pk's package-level declarations but main, init and blank
// names.
func (p *program) collect(pk *pkg) {
	short := strings.TrimPrefix(strings.TrimPrefix(pk.path, module+"/internal/"), module+"/")
	add := func(id *ast.Ident, node ast.Node, doc *ast.CommentGroup, qual string) {
		obj := pk.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		start := node.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		pos := p.fset.Position(node.Pos())
		p.decls[obj] = &decl{
			pkg:   pk,
			node:  node,
			name:  short + "." + qual + id.Name,
			where: filepath.ToSlash(pos.Filename) + ":" + strconv.Itoa(pos.Line),
			lines: p.fset.Position(node.End()).Line - p.fset.Position(start).Line + 1,
		}
	}
	for _, f := range pk.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
					continue
				}
				qual := ""
				if d.Recv != nil {
					qual = recvName(d.Recv.List[0].Type) + "."
				}
				add(d.Name, d, d.Doc, qual)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					doc := specDoc(d, s)
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s, doc, "")
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, s, doc, "")
						}
					}
				}
			}
		}
	}
}

// walker marks declarations reached by walking the syntax of reached ones.
type walker struct {
	p       *program
	ifaces  map[string]bool // method names of the program's interfaces
	reached map[types.Object]bool
	queue   []walk
}

type walk struct {
	node ast.Node
	info *types.Info
}

func (p *program) newWalker() *walker {
	return &walker{p: p, ifaces: p.interfaceMethodNames(), reached: map[types.Object]bool{}}
}

// roots walks from every main, init and package-level var initializer of
// the module packages some main imports, directly or not.
func (w *walker) roots() {
	for _, pk := range w.p.imported() {
		for _, f := range pk.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pk.types.Name() == "main") {
						w.queue = append(w.queue, walk{d, pk.info})
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, s := range d.Specs {
						if s := s.(*ast.ValueSpec); !allBlank(s.Names) {
							for _, v := range s.Values {
								w.queue = append(w.queue, walk{v, pk.info})
							}
						}
					}
				}
			}
		}
	}
	w.drain()
}

// reach marks obj's declaration and queues it for walking.
func (w *walker) reach(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	d, ok := w.p.decls[obj]
	if !ok || w.reached[obj] {
		return
	}
	w.reached[obj] = true
	w.queue = append(w.queue, walk{d.node, d.pkg.info})
	// An implicitly repeated const spec (the iota idiom) does not name its
	// type, so reach the type of whatever is reached; a reached type reaches
	// the methods some interface may call.
	if named, ok := obj.Type().(*types.Named); ok {
		w.reach(named.Obj())
	}
	if _, ok := obj.(*types.TypeName); ok {
		if named, ok := obj.Type().(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); w.ifaces[m.Name()] {
					w.reach(m)
				}
			}
		}
	}
}

func (w *walker) drain() {
	for len(w.queue) > 0 {
		next := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		ast.Inspect(next.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := next.info.Uses[id]; obj != nil {
					w.reach(obj)
				}
			}
			return true
		})
	}
}

// imported returns the module packages some main imports, directly or not.
func (p *program) imported() []*pkg {
	seen := map[string]bool{}
	var out []*pkg
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		pk, ok := p.pkgs[tp.Path()]
		if !ok || seen[tp.Path()] {
			return
		}
		seen[tp.Path()] = true
		out = append(out, pk)
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, pk := range p.pkgs {
		if pk.types.Name() == "main" {
			visit(pk.types)
		}
	}
	return out
}

// interfaceMethodNames is every method name of an interface type the
// program's packages declare, mention or import.
func (p *program) interfaceMethodNames() map[string]bool {
	names := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	addScope := func(tp *types.Package) {
		for _, n := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(n).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	for _, pk := range p.pkgs {
		addScope(pk.types)
		for _, imp := range pk.types.Imports() {
			addScope(imp)
		}
		for _, tv := range pk.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	return names
}

// specDoc is the doc comment of one spec: its own, or the declaration's
// when the declaration is not a parenthesized group.
func specDoc(d *ast.GenDecl, s ast.Spec) *ast.CommentGroup {
	var doc *ast.CommentGroup
	switch s := s.(type) {
	case *ast.TypeSpec:
		doc = s.Doc
	case *ast.ValueSpec:
		doc = s.Doc
	}
	if doc == nil && !d.Lparen.IsValid() {
		return d.Doc
	}
	return doc
}

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
	return "?"
}

func allBlank(names []*ast.Ident) bool {
	for _, n := range names {
		if n.Name != "_" {
			return false
		}
	}
	return true
}
