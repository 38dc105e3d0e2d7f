package rpgo_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the exported internal functions and methods that no
// production code reaches but a test of other behaviour needs as a probe,
// each with the tests that need it.
var apiAllowlist = map[string]string{
	"analytics.BlameVec.Total":   "experiments and obs tests check that blame buckets telescope to the span",
	"launch.Launcher.Backend":    "agent, core and prrte tests check which backend each instance runs",
	"launch.Launcher.Crashed":    "dragon tests check a crash and a failed bootstrap",
	"launch.Launcher.Partition":  "dragon, flux, prrte and slurm tests check that every slot is free after a run",
	"platform.Cluster.Node":      "launch tests fail and restore single nodes",
	"profiler.Profiler.Requests": "experiments tests compare retained request traces with the fold sink",
	"service.Endpoint.Replicas":  "agent service tests count an endpoint's live replicas",
	"sim.Semaphore.Capacity":     "rp tests check that custom srun parameters reach the ceiling",
	"sim.Semaphore.InUse":        "backend and core tests check that instances return their srun ceiling slots",
}

// TestInternalAPIReached fails on an exported function or method declared
// under internal/ that nothing but tests references. Production here is
// every non-test file of the module, every file under bench/ and the root
// package's benchmarks. Exempt are the methods of the internal types rp
// aliases (the public surface), a method its type needs to implement an
// interface that declares it (a module interface, fmt.Stringer, error or
// sort.Interface), and the entries of apiAllowlist. A deletion can leave
// its callees without a caller, so the audit is run again after each one.
func TestInternalAPIReached(t *testing.T) {
	l := loadedAPI(t)
	exempt := l.exemptTypes("rpgo/rp")
	ifaces := l.interfaces()
	funcs := l.auditedFuncs()
	seen := map[string]bool{}
	for _, fn := range funcs {
		name := apiName(fn)
		seen[name] = true
		_, allowed := apiAllowlist[name]
		switch {
		case l.prodReached[fn.Pos()]:
			if allowed {
				t.Errorf("%s: production code reaches it; drop it from apiAllowlist", name)
			}
		case allowed:
			if !l.testReached[fn.Pos()] {
				t.Errorf("%s: allowlisted, but no test reaches it either; delete it", name)
			}
		case exemptMethod(fn, exempt, ifaces):
		default:
			t.Errorf("%s: %s: exported, but only tests reach it", l.fset.Position(fn.Pos()), name)
		}
	}
	for name := range apiAllowlist {
		if !seen[name] {
			t.Errorf("%s: allowlisted, but no such exported function or method under internal/", name)
		}
	}
	t.Logf("audited %d exported functions and methods in %d packages", len(funcs), len(l.order))
}

// fieldAllowlist names the exported internal struct fields that no
// production code writes but a test sets to reach behaviour it cannot reach
// otherwise, or that production writes and only tests (and rp users) read,
// each with the reason. An entry production does not write needs a test
// that writes it, and one production writes needs a test that reads it.
var fieldAllowlist = map[string]string{
	// Set only by tests.
	"campaign.Config.Pipelines":                "campaign tests run campaigns of one to six pipelines",
	"dragon.Config.FailBootstrap":              "dragon tests reach the bootstrap-timeout failure, which no cost model draws",
	"experiments.ShardedThroughputConfig.Wave": "the shards=N wave test refills each pilot's waves at 5,000 tasks a pilot; the default 16,384-task wave takes them in one",
	"experiments.StagingSweepConfig.Sources":   "staging tests sweep the burst-buffer source tier, which no production sweep reads from",
	"sim.Engine.MaxSteps":                      "engine, primitives and flux tests stop an event storm instead of hanging",

	// Read only by rp users, through a type rp aliases, and by tests.
	"analytics.Straggler.Workflow":  "rp's BlameReport.Stragglers hands it to users; obs tests check a flag's workflow",
	"analytics.TaskSummary.Backend": "rp's BlameSink.Summaries hands it to users; obs tests check a digest's backend",

	// Read only by tests, which check the result they belong to.
	"analytics.BackendStats.Failed":              "analytics tests check PerBackend's failure count",
	"campaign.IterationRecord.Iteration":         "campaign tests check that a pipeline's iterations complete in order",
	"experiments.AutoscaleResult.Events":         "experiments tests check that a burst scales the service up",
	"experiments.AutoscaleResult.Served":         "experiments tests check that the autoscaled service serves requests",
	"experiments.FailureCell.Done":               "experiments tests check that every task of a failure cell ends DONE or FAILED",
	"experiments.FailureCell.NodeFailures":       "experiments tests check that a failure cell draws node failures",
	"experiments.ServiceCell.Failed":             "experiments tests check that no request of a service cell fails",
	"experiments.ServiceCell.Rate":               "experiments tests find a service sweep's cell by its rate and replicas",
	"experiments.ServiceCell.Replicas":           "experiments tests find a service sweep's cell by its rate and replicas",
	"experiments.ServiceCell.Served":             "experiments tests check that every service cell serves requests",
	"experiments.ShardedThroughputResult.Failed": "experiments tests check that shards=N fails the tasks shards=1 does",
	"experiments.StagingCell.Failed":             "experiments tests check that no staging cell fails a task",
	"launch.Stats.Completed":                     "backend tests check that every submitted request completes",
	"launch.Stats.Failed":                        "backend tests check that no request fails",
	"launch.Stats.QueueLen":                      "flux and slurm tests check that a run drains the queue",
	"launch.Stats.Submitted":                     "backend tests check that every request reaches the launcher",
	"metrics.Throughput.Tasks":                   "metrics tests check the start count",
	"obs.ParsedSample.Labels":                    "FuzzParseExposition checks that labels round-trip",
}

// TestInternalFieldsSet fails on an exported field of a struct type
// declared under internal/ that no production code writes, a setting only
// tests set or a result nothing fills, or that no production code reads,
// a record nothing consults. A write is an assignment, op=, ++ or -- to
// the field through any chain of selectors and indexes, taking its
// address, or a keyed or positional struct-literal element. A read is any
// other selection of the field, its address included; a field that is
// only assigned, counted or updated in place is not read. Production is as
// TestInternalAPIReached has it. Exempt are the fields of the types rp
// aliases (users set and read them), fields with a struct tag (a codec
// writes and reads them) and the entries of fieldAllowlist.
func TestInternalFieldsSet(t *testing.T) {
	l := loadedAPI(t)
	exempt := l.exemptTypes("rpgo/rp")
	fields := l.auditedFields(exempt)
	seen := map[string]bool{}
	for _, f := range fields {
		seen[f.name] = true
		_, allowed := fieldAllowlist[f.name]
		pos := f.v.Pos()
		written, read := l.prodWritten[pos], l.prodRead[pos]
		switch {
		case written && read:
			if allowed {
				t.Errorf("%s: production code writes and reads it; drop it from fieldAllowlist", f.name)
			}
		case allowed:
			if !written && !l.testWritten[pos] {
				t.Errorf("%s: allowlisted, but no test writes it either; delete it", f.name)
			}
			if written && !l.testRead[pos] {
				t.Errorf("%s: allowlisted, but no test reads it either; delete it", f.name)
			}
		case !written:
			t.Errorf("%s: %s: exported, but no production code writes it", l.fset.Position(pos), f.name)
		default:
			t.Errorf("%s: %s: exported, but no production code reads it", l.fset.Position(pos), f.name)
		}
	}
	for name := range fieldAllowlist {
		if !seen[name] {
			t.Errorf("%s: allowlisted, but no such audited field under internal/", name)
		}
	}
	t.Logf("audited %d exported fields", len(fields))
}

// apiCache holds the module as loaded by the first audit that runs.
var apiCache *apiLoader

// loadedAPI type-checks every package of the module in its production and
// test variants once, recording what each side references and writes.
func loadedAPI(t *testing.T) *apiLoader {
	t.Helper()
	if apiCache != nil {
		return apiCache
	}
	l := newAPILoader(t)
	for _, path := range l.order {
		l.pkg("", path)
		p := l.pkgs[path]
		if len(p.tests) > 0 {
			l.pkg(path, path)
		}
		if len(p.xtests) > 0 {
			l.check(path, path+"_test", p.xtests)
		}
	}
	for _, err := range l.errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	apiCache = l
	return l
}

// apiPkg is one directory of the module: its build files, its in-package
// tests and its external test package.
type apiPkg struct {
	files, tests, xtests []*ast.File
	imports              []string // module packages the build files import
}

type apiLoader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*apiPkg // by import path
	order []string           // import paths, sorted
	// checked holds each package as type-checked in a variant: "" is the
	// production build, and variant P is the build of `go test P`, where P
	// carries its in-package tests and so does every package importing it.
	checked map[[2]string]*types.Package
	// deps memoizes whether a package transitively imports another.
	deps map[[2]string]bool
	// decls maps a function's position to its declaration's extent, so a
	// recursive call is not counted as a reference.
	decls                    map[token.Pos][2]token.Pos
	prodReached, testReached map[token.Pos]bool
	// prodWritten and testWritten hold the internal struct fields each
	// side writes, and prodRead and testRead those it reads, by
	// declaration position.
	prodWritten, testWritten map[token.Pos]bool
	prodRead, testRead       map[token.Pos]bool
	errs                     []error
}

const modulePath = "rpgo"

func newAPILoader(t *testing.T) *apiLoader {
	l := &apiLoader{
		fset:        token.NewFileSet(),
		std:         importer.Default(),
		pkgs:        map[string]*apiPkg{},
		checked:     map[[2]string]*types.Package{},
		deps:        map[[2]string]bool{},
		decls:       map[token.Pos][2]token.Pos{},
		prodReached: map[token.Pos]bool{},
		testReached: map[token.Pos]bool{},
		prodWritten: map[token.Pos]bool{},
		testWritten: map[token.Pos]bool{},
		prodRead:    map[token.Pos]bool{},
		testRead:    map[token.Pos]bool{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				l.decls[fd.Name.Pos()] = [2]token.Pos{fd.Pos(), fd.End()}
			}
		}
		ip := modulePath
		if dir != "." {
			ip += "/" + filepath.ToSlash(dir)
		}
		p := l.pkgs[ip]
		if p == nil {
			p = &apiPkg{}
			l.pkgs[ip] = p
			l.order = append(l.order, ip)
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			p.files = append(p.files, f)
			for _, is := range f.Imports {
				if s := strings.Trim(is.Path.Value, `"`); isModule(s) {
					p.imports = append(p.imports, s)
				}
			}
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		default:
			p.tests = append(p.tests, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(l.order)
	return l
}

func isModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// pkg returns path as type-checked in variant, checking it on first use.
func (l *apiLoader) pkg(variant, path string) *types.Package {
	if variant != "" && path != variant && !l.dependsOn(path, variant) {
		variant = ""
	}
	key := [2]string{variant, path}
	if pkg, ok := l.checked[key]; ok {
		return pkg
	}
	p := l.pkgs[path]
	if p == nil {
		l.errs = append(l.errs, fmt.Errorf("import %q: no such module package", path))
		return nil
	}
	files := p.files
	if path == variant {
		files = append(append([]*ast.File(nil), p.files...), p.tests...)
	}
	pkg := l.check(variant, path, files)
	l.checked[key] = pkg
	return pkg
}

func (l *apiLoader) dependsOn(path, dep string) bool {
	key := [2]string{path, dep}
	if v, ok := l.deps[key]; ok {
		return v
	}
	v := false
	if p := l.pkgs[path]; p != nil {
		for _, ip := range p.imports {
			if ip == dep || l.dependsOn(ip, dep) {
				v = true
				break
			}
		}
	}
	l.deps[key] = v
	return v
}

// check type-checks files as package path in variant and records the
// internal functions and methods each file references.
func (l *apiLoader) check(variant, path string, files []*ast.File) *types.Package {
	conf := types.Config{
		Importer: importerFunc(func(ip string) (*types.Package, error) {
			if isModule(ip) {
				return l.pkg(variant, ip), nil
			}
			return l.std.Import(ip)
		}),
		Error: func(err error) { l.errs = append(l.errs, err) },
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, _ := conf.Check(path, l.fset, files, info)
	for _, f := range files {
		l.recordFields(info, f)
	}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), modulePath+"/internal/") {
			continue
		}
		fn = fn.Origin()
		if ext, ok := l.decls[fn.Pos()]; ok && ext[0] <= id.Pos() && id.Pos() < ext[1] {
			continue
		}
		if isProduction(l.fset.Position(id.Pos()).Filename) {
			l.prodReached[fn.Pos()] = true
		} else {
			l.testReached[fn.Pos()] = true
		}
	}
	return pkg
}

// recordFields records the internal struct fields f writes: the target of
// an assignment, op=, ++ or --, or an & operand, with every field of a
// struct or array value that holds it; and each element of a keyed or
// positional struct literal. It records as read every other selection of a
// field: the selectors an assignment, op=, ++ or -- only stores through are
// not reads.
func (l *apiLoader) recordFields(info *types.Info, f *ast.File) {
	written, read := l.testWritten, l.testRead
	if isProduction(l.fset.Position(f.Pos()).Filename) {
		written, read = l.prodWritten, l.prodRead
	}
	field := func(obj types.Object) (token.Pos, bool) {
		if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != nil &&
			strings.HasPrefix(v.Pkg().Path(), modulePath+"/internal/") {
			return v.Origin().Pos(), true
		}
		return token.NoPos, false
	}
	mark := func(obj types.Object) {
		if pos, ok := field(obj); ok {
			written[pos] = true
		}
	}
	// stores holds the selectors a store goes through without reading.
	stores := map[*ast.SelectorExpr]bool{}
	under := func(e ast.Expr) types.Type {
		if t := info.Types[e].Type; t != nil {
			return t.Underlying()
		}
		return nil // a package name
	}
	target := func(e ast.Expr, store bool) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				mark(info.Uses[x.Sel])
				stores[x] = store
				// Writing a field of a struct value writes the field
				// holding that value too; through a pointer it does not.
				if _, ptr := under(x.X).(*types.Pointer); ptr {
					return
				}
				e = x.X
			case *ast.IndexExpr:
				if _, arr := under(x.X).(*types.Array); !arr {
					return
				}
				e = x.X
			default:
				return
			}
		}
	}
	// defaults holds the assignments that only give a field its default.
	defaults := map[*ast.AssignStmt]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if as := defaultWrite(info, n); as != nil {
				defaults[as] = true
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE && !defaults[n] {
				for _, lhs := range n.Lhs {
					target(lhs, true)
				}
			}
		case *ast.IncDecStmt:
			target(n.X, true)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X, false)
			}
		case *ast.SelectorExpr:
			// Inspect visits a statement before its operands, so stores
			// is complete for every selector under it.
			if pos, ok := field(info.Uses[n.Sel]); ok && !stores[n] {
				read[pos] = true
			}
		case *ast.CompositeLit:
			st, ok := under(n).(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					mark(info.Uses[kv.Key.(*ast.Ident)])
				} else {
					mark(st.Field(i))
				}
			}
		}
		return true
	})
}

// defaultWrite returns the assignment of an if that only gives a field its
// default, as in `if c.F == 0 { c.F = v }`: the if's one statement assigns
// the field, and its condition compares the same field, or its len, with
// ==, <= or < against a constant. Such a write sets nothing a caller chose,
// so it is not counted.
func defaultWrite(info *types.Info, n *ast.IfStmt) *ast.AssignStmt {
	if n.Init != nil || n.Else != nil || len(n.Body.List) != 1 {
		return nil
	}
	as, ok := n.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if v, ok := info.Uses[lhs.Sel].(*types.Var); !ok || !v.IsField() {
		return nil
	}
	cond, ok := n.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.EQL && cond.Op != token.LEQ && cond.Op != token.LSS ||
		info.Types[cond.Y].Value == nil {
		return nil
	}
	x := cond.X
	if call, ok := x.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "len" {
			if _, builtin := info.Uses[id].(*types.Builtin); builtin {
				x = call.Args[0]
			}
		}
	}
	if types.ExprString(x) != types.ExprString(lhs) {
		return nil
	}
	return as
}

// isProduction reports whether a reference in file reaches production: a
// non-test file, a file of the bench/ module, or a root benchmark.
func isProduction(file string) bool {
	return !strings.HasSuffix(file, "_test.go") ||
		filepath.Dir(file) == "." ||
		strings.HasPrefix(filepath.ToSlash(file), "bench/")
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// auditedFuncs lists the exported functions and methods declared under
// internal/, in production builds, by position.
func (l *apiLoader) auditedFuncs() []*types.Func {
	var out []*types.Func
	for _, path := range l.order {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		scope := l.checked[[2]string{"", path}].Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					out = append(out, obj)
				}
			case *types.TypeName:
				if n, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
					for i := 0; i < n.NumMethods(); i++ {
						if m := n.Method(i); m.Exported() {
							out = append(out, m)
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// auditedField is one exported field and its pkg.Type.Field name.
type auditedField struct {
	v    *types.Var
	name string
}

// auditedFields lists the exported fields of the struct types declared
// under internal/, in production builds, by position, less the exempt ones.
func (l *apiLoader) auditedFields(exempt map[token.Pos]bool) []auditedField {
	var out []auditedField
	for _, path := range l.order {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		scope := l.checked[[2]string{"", path}].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || exempt[tn.Pos()] {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && st.Tag(i) == "" {
					out = append(out, auditedField{f, tn.Pkg().Name() + "." + tn.Name() + "." + f.Name()})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].v.Pos() < out[j].v.Pos() })
	return out
}

// exemptTypes returns the declarations of the internal types that package
// path aliases.
func (l *apiLoader) exemptTypes(path string) map[token.Pos]bool {
	out := map[token.Pos]bool{}
	scope := l.checked[[2]string{"", path}].Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				out[n.Origin().Obj().Pos()] = true
			}
		}
	}
	return out
}

// interfaces returns every interface the module declares at package level,
// with fmt.Stringer, error and sort.Interface.
func (l *apiLoader) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, std := range [][2]string{{"fmt", "Stringer"}, {"sort", "Interface"}} {
		pkg, err := l.std.Import(std[0])
		if err != nil {
			l.errs = append(l.errs, err)
			continue
		}
		out = append(out, pkg.Scope().Lookup(std[1]).Type().Underlying().(*types.Interface))
	}
	for _, path := range l.order {
		scope := l.checked[[2]string{"", path}].Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
	}
	return out
}

// exemptMethod reports whether fn is a method of a type rp aliases, or one
// its receiver type needs to implement an interface that declares it.
func exemptMethod(fn *types.Func, rpTypes map[token.Pos]bool, ifaces []*types.Interface) bool {
	n := recvNamed(fn)
	if n == nil {
		return false
	}
	if rpTypes[n.Origin().Obj().Pos()] {
		return true
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(n, it) || types.Implements(types.NewPointer(n), it)) {
				return true
			}
		}
	}
	return false
}

// recvNamed returns the named type a method is declared on, nil for a
// function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// apiName is fn as the allowlist and failures name it: pkg.Func or
// pkg.Type.Method.
func apiName(fn *types.Func) string {
	if n := recvNamed(fn); n != nil {
		return fn.Pkg().Name() + "." + n.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
