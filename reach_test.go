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
	"sync"
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

	"graph.Graph.NodesFor":                "core/plan_oracle_test.go builds the from-scratch reference's loads with it",
	"multiplex.IncrementalPlanner.Groups": "core/plan_oracle_test.go checks clean groups against the sharing partition",
	"stats.Reservoir.Values":              "sim's partition fingerprints hash every latency reservoir",
	"sim.ServiceResult.Mean":              "queueing's TestSimulatorMatchesErlangC holds the simulator's mean response time to Erlang C",

	"sim.RouteRoundRobin": "the iota zero value of Routing: without it RouteP2C becomes the default",
}

// unwrittenAllowlist names the exported fields of reached struct types that
// no program writes but that stay, each with the ROADMAP item that gives it a
// writer or deletes it. An entry that a program comes to write, or that no
// longer exists, fails the test like an unwritten field does.
var unwrittenAllowlist = map[string]string{
	"core.OfflineConfig.FromTraces": "ROADMAP items 1(d) and 4(b): trace-fed profiling gets its writer once sampling stops perturbing the stream",
	"sim.Config.Routing":            "ROADMAP item 4(d): RouteP2C and Config.Routing go with one fingerprint re-capture",
}

// loadRepo type-checks the repository once for every test of this file.
var loadRepo = sync.OnceValues(func() (*program, error) { return loadProgram(".") })

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
	p, err := loadRepo()
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

// TestEveryFieldHasAWriter asks the reach walk's second question: who sets
// this? A settable value no program sets is a branch no program takes. The
// test fails on any exported field of a struct type a program reaches that no
// reached declaration (main and init bodies included) writes, by a
// composite-literal key, a positional literal, an assignment or ++/--
// through a selector, taking the field's address, or calling a
// pointer-receiver method on it. A default is not a write: `x.F = e` directly
// in the body of an if whose condition compares x.F, or len(x.F), only
// against constants (`if c.N <= 0 { c.N = 8 }`) supplies the value nobody
// set, so a field written only that way fails too. Delete such a field with
// its default made a constant, or allowlist it above with its reason.
func TestEveryFieldHasAWriter(t *testing.T) {
	p, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	w := p.newWalker()
	w.roots()
	fields := map[string]*types.Var{}
	for obj := range w.reached {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue // an alias names a type counted under its own name
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fields[p.decls[obj].name+"."+f.Name()] = f
			}
		}
	}
	for name := range unwrittenAllowlist {
		switch f, ok := fields[name]; {
		case !ok:
			t.Errorf("allowlisted field %s no longer exists: drop it from unwrittenAllowlist", name)
		case w.written[f]:
			t.Errorf("allowlisted field %s has a writer now: drop it from unwrittenAllowlist", name)
		}
	}
	var unwritten []string
	for name, f := range fields {
		if _, ok := unwrittenAllowlist[name]; !ok && !w.written[f] {
			unwritten = append(unwritten, name+" ("+p.fset.Position(f.Pos()).String()+")")
		}
	}
	if len(unwritten) > 0 {
		sort.Strings(unwritten)
		t.Errorf("%d exported fields of reached types have no writer in any program of the repository;\n"+
			"delete them (a default becomes a constant) or allowlist them with a reason:\n\t%s",
			len(unwritten), strings.Join(unwritten, "\n\t"))
	}
}

// settableCount is the repository's count of settable values, pinned: a
// change that adds or removes an option edits it, in plain view.
const settableCount = 166

// TestSettableValues logs the repository's count of settable values — the
// exported fields of exported struct types named *Config, *Opts, *Options or
// *Spec, the exported With* option functions, and the flags cmd/ registers —
// so that the options a change adds or removes are a measured number, and
// fails when the count differs from settableCount. scripts/ci.sh prints it.
func TestSettableValues(t *testing.T) {
	p, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	var fields, options, flags int
	for _, pk := range p.pkgs {
		scope := pk.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.TypeName:
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok || obj.IsAlias() || !obj.Exported() || !configShaped(name) {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i).Exported() {
						fields++
					}
				}
			case *types.Func:
				if obj.Exported() && strings.HasPrefix(name, "With") {
					options++
				}
			}
		}
		if !strings.HasPrefix(pk.path, module+"/cmd/") {
			continue
		}
		for _, f := range pk.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if fn, ok := pk.info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg().Path() == "flag" && flagDefiners[fn.Name()] {
							flags++
						}
					}
				}
				return true
			})
		}
	}
	total := fields + options + flags
	t.Logf("settable values: %d (%d config-shaped fields, %d With* options, %d cmd/ flags)",
		total, fields, options, flags)
	if total != settableCount {
		t.Errorf("%d settable values, but settableCount is %d: make a new value a constant, or set settableCount to %d",
			total, settableCount, total)
	}
}

func configShaped(name string) bool {
	for _, suffix := range []string{"Config", "Opts", "Options", "Spec"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// flagDefiners are the functions of package flag (and methods of
// flag.FlagSet) that register a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
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
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
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

// walker marks declarations reached by walking the syntax of reached ones,
// and the struct fields that syntax writes.
type walker struct {
	p        *program
	ifaces   map[string]bool // method names of the program's interfaces
	reached  map[types.Object]bool
	written  map[*types.Var]bool
	defaults map[ast.Expr]bool // assignment targets that only default a field
	queue    []walk
}

type walk struct {
	node ast.Node
	info *types.Info
}

func (p *program) newWalker() *walker {
	return &walker{p: p, ifaces: p.interfaceMethodNames(), reached: map[types.Object]bool{},
		written: map[*types.Var]bool{}, defaults: map[ast.Expr]bool{}}
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
				return true
			}
			w.noteWrites(n, next.info)
			return true
		})
	}
}

// noteWrites records the struct fields node n writes.
func (w *walker) noteWrites(n ast.Node, info *types.Info) {
	switch n := n.(type) {
	case *ast.CompositeLit:
		t := info.Types[n].Type
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
					w.written[f.Origin()] = true
				}
			} else {
				w.written[st.Field(i).Origin()] = true
			}
		}
	case *ast.IfStmt:
		// Inspect visits the if before its body, so its defaults are known
		// by the time the body's assignments are.
		if x := defaulted(n.Cond, info); x != "" {
			for _, s := range n.Body.List {
				if as, ok := s.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
					for _, lhs := range as.Lhs {
						if types.ExprString(lhs) == x {
							w.defaults[lhs] = true
						}
					}
				}
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if !w.defaults[lhs] {
				w.writeThrough(lhs, info)
			}
		}
	case *ast.IncDecStmt:
		w.writeThrough(n.X, info)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			w.writeThrough(n.X, info)
		}
	case *ast.SelectorExpr:
		// x.F.M() with a pointer-receiver M takes x.F's address.
		if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
			recv := sel.Obj().Type().(*types.Signature).Recv().Type()
			_, ptrRecv := recv.(*types.Pointer)
			_, ptrOperand := info.Types[n.X].Type.Underlying().(*types.Pointer)
			if ptrRecv && !ptrOperand {
				w.writeThrough(n.X, info)
			}
		}
	}
}

// writeThrough records the fields an assignment to e writes: e's own
// selector, and each selector it reaches through values (x.F.G and x.F[i]
// write F too; p.G with p a pointer field does not write p).
func (w *walker) writeThrough(e ast.Expr, info *types.Info) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			w.written[sel.Obj().(*types.Var).Origin()] = true
			if _, ptr := info.Types[x.X].Type.Underlying().(*types.Pointer); ptr {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// defaulted returns the field selector x.F when cond compares x.F, or
// len(x.F), only against constants (`c.N <= 0`, `c.Q <= 0 || c.Q >= 1`,
// `len(c.L) == 0`): an assignment to x.F directly in that if's body supplies
// a default, it does not set the value. Otherwise it returns "". A
// comparison against a variable (`s > st.Max`) makes no default.
func defaulted(cond ast.Expr, info *types.Info) string {
	e, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return ""
	}
	switch e.Op {
	case token.LOR, token.LAND:
		if x := defaulted(e.X, info); x == defaulted(e.Y, info) {
			return x
		}
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		for _, sides := range [2][2]ast.Expr{{e.X, e.Y}, {e.Y, e.X}} {
			if info.Types[sides[1]].Value != nil {
				if x := fieldOperand(sides[0], info); x != "" {
					return x
				}
			}
		}
	}
	return ""
}

// fieldOperand returns x.F for the operand x.F or len(x.F), else "".
func fieldOperand(e ast.Expr, info *types.Info) string {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if id, ok := call.Fun.(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("len") {
			e = ast.Unparen(call.Args[0])
		}
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || info.Selections[sel] == nil || info.Selections[sel].Kind() != types.FieldVal {
		return ""
	}
	return types.ExprString(sel)
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
