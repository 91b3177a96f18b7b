// Command reach fails when a production function of the module is linked
// into no binary. Run `go run ./internal/reach` from the module root.
//
// The roots are the main packages of the module and of the benchmarks
// module, and a main added through `go build -overlay` that references
// the root package's exported funcs and the exported methods of every
// exported module type its API reaches through aliases, signatures and
// exported fields. Each is built with inlining off, so `go tool nm` lists
// every called function. Every func of a non-test file outside package
// main must appear there (closure suffixes and generic instantiations
// stripped) or in allow.txt with a reason; empty-bodied methods
// (sealed-interface markers) are exempt, and files that a build
// constraint keeps out of the default build (such as `race`) are out of
// scope. It exits 1 on an unreachable function not listed, and on a
// listed entry that is reachable or gone.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const (
	allowFile = "internal/reach/allow.txt"
	facadeDir = "internal/reach/facade"
	maxAllow  = 40
)

func main() {
	bad, err := reach()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	if fmt.Print(strings.Join(append(bad, ""), "\n")); len(bad) > 0 {
		os.Exit(1)
	}
}

// reach returns one line per unreachable function and stale allow.txt
// entry, sorted.
func reach() (bad []string, err error) {
	fset, linked, allow := token.NewFileSet(), map[string]bool{}, map[string]bool{}
	decls, mains, root, files, err := scan(fset)
	var facade, syms string
	if err == nil {
		facade, err = api(fset, root, files)
	}
	if err == nil {
		syms, err = build(mains, facade)
	}
	data, rerr := os.ReadFile(allowFile) // one key per line, then its reason
	if err != nil || rerr != nil {
		return nil, errors.Join(err, rerr)
	}
	for _, line := range strings.Split(syms, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
			linked[symbolKey(strings.Join(f[2:], " "))] = true
		}
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, reason, _ := strings.Cut(strings.TrimSpace(line), " "); key != "" && key[0] != '#' {
			if allow[key] = true; strings.TrimSpace(reason) == "" {
				bad = append(bad, allowFile+": "+key+" has no reason")
			} else if _, ok := decls[key]; !ok {
				bad = append(bad, allowFile+": "+key+" is no longer declared")
			} else if linked[key] {
				bad = append(bad, allowFile+": "+key+" is reachable")
			}
		}
	}
	for key, pos := range decls {
		if !linked[key] && !allow[key] {
			bad = append(bad, pos+": "+key+" is linked into no binary")
		}
	}
	if len(allow) > maxAllow {
		bad = append(bad, fmt.Sprintf("%s: %d entries, at most %d", allowFile, len(allow), maxAllow))
	}
	sort.Strings(bad)
	fmt.Fprintf(os.Stderr, "reach: %d functions, %d allowlisted, %d findings\n", len(decls), len(allow), len(bad))
	return bad, nil
}

// scan lists the module's packages in the default build. It returns the
// funcs declared outside package main (key to position), the main
// packages, and the root package's import path and parsed files.
func scan(fset *token.FileSet) (decls map[string]string, mains []string, root string, files []*ast.File, err error) {
	out, err := goOut(".", "list", "-f", `{{.ImportPath}} {{.Name}} {{.Dir}} {{join .GoFiles " "}}`, "./...")
	wd, _ := os.Getwd()
	decls = map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if f := strings.Fields(line); err == nil && f[1] == "main" {
			mains = append(mains, f[0])
		} else if err == nil {
			for _, file := range f[3:] {
				rel, _ := filepath.Rel(wd, filepath.Join(f[2], file))
				syntax, perr := parser.ParseFile(fset, rel, nil, 0)
				if err = perr; err != nil {
					break
				} else if f[2] == wd {
					root, files = f[0], append(files, syntax)
				}
				for _, d := range syntax.Decls {
					if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name != "init" && fn.Name.Name != "_" && (fn.Recv == nil || len(fn.Body.List) > 0) {
						key := f[0] + "." + fn.Name.Name
						if fn.Recv != nil {
							recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*"), "[")
							key = f[0] + "." + recv + "." + fn.Name.Name
						}
						decls[key] = fset.Position(fn.Pos()).String()
					}
				}
			}
		}
	}
	return decls, mains, root, files, err
}

// api type-checks the root package against its dependencies' export data
// and returns the source of a main that references its exported API.
func api(fset *token.FileSet, root string, files []*ast.File) (string, error) {
	out, err := goOut(".", "list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}", ".")
	exports := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		path, file, _ := strings.Cut(line, " ")
		exports[path] = file
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	pkg, cerr := (&types.Config{Importer: imp}).Check(root, fset, files, nil)
	if err != nil || cerr != nil {
		return "", errors.Join(err, cerr)
	}
	src, imports, roots, seen := "package main\n\nimport (\n", map[string]string{}, "", map[types.Type]bool{}
	ref := func(p *types.Package, expr string) {
		if imports[p.Path()] == "" {
			imports[p.Path()] = fmt.Sprintf("p%d", len(imports))
			src += fmt.Sprintf("\t%s %q\n", imports[p.Path()], p.Path())
		}
		roots += "\t" + fmt.Sprintf(expr, imports[p.Path()]) + ",\n"
	}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t = types.Unalias(t); seen[t] {
			return
		}
		switch seen[t] = true; t := t.(type) {
		case *types.Named: // exported, non-generic, of this module
			if p := t.Obj().Pkg(); p != nil && strings.HasPrefix(p.Path()+"/", root+"/") && t.Obj().Exported() && t.TypeParams() == nil {
				for i := range t.NumMethods() {
					if m := t.Method(i); m.Exported() {
						ref(p, "(*%s."+t.Obj().Name()+")."+m.Name())
						walk(m.Type())
					}
				}
				walk(t.Underlying())
			}
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := range t.Len() {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := range t.NumFields() {
				if t.Field(i).Exported() {
					walk(t.Field(i).Type())
				}
			}
		case *types.Interface:
			for i := range t.NumExplicitMethods() {
				walk(t.ExplicitMethod(i).Type())
			}
		}
	}
	for _, name := range pkg.Scope().Names() {
		if obj := pkg.Scope().Lookup(name); obj.Exported() {
			if fn, ok := obj.(*types.Func); ok && fn.Signature().TypeParams() == nil {
				ref(pkg, "%s."+name)
			}
			walk(obj.Type())
		}
	}
	return src + ")\n\nvar roots = []any{\n" + roots + "}\n\nfunc main() { println(len(roots)) }\n", nil
}

// build links every root with inlining off into a temporary directory
// and returns the `go tool nm` listing of them all.
func build(mains []string, facade string) (string, error) {
	tmp, err := os.MkdirTemp("", "reach")
	defer os.RemoveAll(tmp)
	wd, _ := os.Getwd()
	src, overlay, bin := filepath.Join(tmp, "facade.go"), filepath.Join(tmp, "overlay.json"), filepath.Join(tmp, "bin")
	if err == nil {
		err = os.WriteFile(src, []byte(facade), 0o644)
	}
	if ov := fmt.Sprintf(`{"Replace":{%q:%q}}`, filepath.Join(wd, facadeDir, "main.go"), src); err == nil {
		err = os.WriteFile(overlay, []byte(ov), 0o644)
	}
	if err == nil {
		_, err = goOut(".", append([]string{"build", "-gcflags=all=-l", "-overlay", overlay, "-o", bin + "/", "./" + facadeDir}, mains...)...)
	}
	if err == nil {
		_, err = goOut("benchmarks", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "benchmarks.bin"), ".")
	}
	bins, _ := filepath.Glob(filepath.Join(bin, "*"))
	syms := ""
	for _, b := range bins {
		out, nmErr := goOut(".", "tool", "nm", b)
		if syms += out; err == nil {
			err = nmErr
		}
	}
	return syms, err
}

// goOut runs the go command in dir and returns its standard output.
func goOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s in %s: %w", strings.Join(args[:2], " "), dir, err)
	}
	return string(out), nil
}

var (
	brackets = regexp.MustCompile(`\[[^\[\]]*\]`)
	closure  = regexp.MustCompile(`(\.(func|gowrap|deferwrap)?\d+)+$`)
)

// symbolKey maps a linked symbol to the key scan gives its declaration:
// pkg.(*T[shape]).M.func1 becomes pkg.T.M.
func symbolKey(sym string) string {
	for brackets.MatchString(sym) {
		sym = brackets.ReplaceAllString(sym, "")
	}
	sym = closure.ReplaceAllString(strings.TrimSuffix(sym, "-fm"), "")
	return strings.NewReplacer("(*", "", ")", "").Replace(sym)
}
