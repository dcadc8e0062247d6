// Command doccheck is the repository's documentation gate, run by ci.sh:
//
//	go run ./internal/doccheck
//
// It enforces five invariants that ordinary builds do not:
//
//  1. Every exported symbol — functions, methods, types, consts, vars —
//     in every non-test file carries a doc comment. The public facade is
//     the product here (the paper's transformation behind a small API),
//     so an undocumented export is a defect, not a style nit.
//  2. Every fenced ```go block in README.md that declares a package
//     compiles against the current module. Documentation that drifts
//     from the API fails the gate instead of rotting.
//  3. Every exported sentinel error (a var named Err...) documents its
//     trigger in the standard form: the doc comment must contain
//     "is returned when", so a reader scanning the grouped sentinels in
//     options.go learns when each fires, not just that it exists.
//  4. Every package carries a package-level doc comment on at least one
//     non-test file (the doc.go convention, though any file counts): a
//     package whose purpose must be reverse-engineered from its exports
//     is undocumented no matter how well each export reads.
//  5. Every word shaped like a sentinel (Err, then a capitalized name) in a
//     Go comment, README.md or DESIGN.md names a sentinel internal/errs
//     declares, unless another package qualifies it: prose that cites an
//     error a past PR deleted or renamed fails here instead of misleading.
//
// Exit status is non-zero with one line per finding.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	known := declaredSentinels(root)
	var findings []string
	findings = append(findings, checkDocComments(root, known)...)
	for _, md := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(filepath.Join(root, md))
		if err != nil {
			fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			findings = append(findings, checkSentinelWords(fmt.Sprintf("%s:%d", md, i+1), line, known)...)
		}
	}
	findings = append(findings, checkReadmeSnippets(root)...)
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("doccheck: exported surface documented, cited sentinels exist, README snippets compile")
}

// sentinelWord matches a word shaped like a sentinel error's name, with the
// package qualifying it, if any.
var sentinelWord = regexp.MustCompile(`(\w+\.)?\bErr[A-Z]\w*`)

// declaredSentinels returns the names of the sentinels internal/errs declares.
func declaredSentinels(root string) map[string]bool {
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, "internal", "errs", "errs.go"), nil, 0)
	if err != nil {
		fatal(err)
	}
	known := map[string]bool{}
	for _, decl := range file.Decls {
		if d, ok := decl.(*ast.GenDecl); ok && d.Tok == token.VAR {
			for _, spec := range d.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					known[id.Name] = true
				}
			}
		}
	}
	return known
}

// checkSentinelWords reports the sentinel-shaped words of text that name no
// declared sentinel. A word another package qualifies (os.ErrClosed) is that
// package's; errs. and repro. qualify the repository's own.
func checkSentinelWords(where, text string, known map[string]bool) []string {
	var findings []string
	for _, m := range sentinelWord.FindAllStringSubmatch(text, -1) {
		name := strings.TrimPrefix(m[0], m[1])
		if (m[1] == "" || m[1] == "errs." || m[1] == "repro.") && !known[name] {
			findings = append(findings, fmt.Sprintf("%s: %s names no sentinel declared in internal/errs", where, m[0]))
		}
	}
	return findings
}

// checkDocComments parses every non-test .go file under root and reports
// exported declarations without doc comments, packages where no file
// carries a package-level doc comment, and comments citing a sentinel that
// is not in known.
func checkDocComments(root string, known map[string]bool) []string {
	var findings []string
	fset := token.NewFileSet()
	var pkgDirs []string           // package directories in walk order
	pkgDoc := map[string]bool{}    // dir -> some file documents the package
	pkgName := map[string]string{} // dir -> package name
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		dir := filepath.Dir(rel)
		if _, seen := pkgDoc[dir]; !seen {
			pkgDirs = append(pkgDirs, dir)
			pkgDoc[dir] = false
			pkgName[dir] = file.Name.Name
		}
		if file.Doc != nil {
			pkgDoc[dir] = true
		}
		findings = append(findings, checkFile(fset, rel, file)...)
		for _, cg := range file.Comments {
			findings = append(findings, checkSentinelWords(fmt.Sprintf("%s:%d", rel, fset.Position(cg.Pos()).Line), cg.Text(), known)...)
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	for _, dir := range pkgDirs {
		if !pkgDoc[dir] {
			findings = append(findings, fmt.Sprintf(
				"%s: package %s has no package-level doc comment on any file",
				dir, pkgName[dir]))
		}
	}
	return findings
}

// checkFile reports the undocumented exported declarations of one file.
func checkFile(fset *token.FileSet, path string, file *ast.File) []string {
	var findings []string
	report := func(pos token.Pos, kind, name string) {
		findings = append(findings, fmt.Sprintf("%s:%d: undocumented exported %s %s",
			path, fset.Position(pos).Line, kind, name))
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			kind, name := "function", d.Name.Name
			if d.Recv != nil {
				recv := receiverType(d.Recv)
				if recv != "" && !ast.IsExported(recv) {
					continue // method on an unexported type: not API surface
				}
				kind, name = "method", recv+"."+d.Name.Name
			}
			report(d.Pos(), kind, name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					// A doc comment on the grouped decl covers every spec
					// in it (the enumerated-constants convention); an
					// undocumented group needs per-spec docs (the
					// sentinel-error convention).
					for _, id := range s.Names {
						if !id.IsExported() {
							continue
						}
						if d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(id.Pos(), "value", id.Name)
							continue
						}
						if strings.HasPrefix(id.Name, "Err") && !sentinelDocOK(s) {
							findings = append(findings, fmt.Sprintf(
								"%s:%d: sentinel %s: doc comment must say \"is returned when ...\"",
								path, fset.Position(id.Pos()).Line, id.Name))
						}
					}
				}
			}
		}
	}
	return findings
}

// sentinelDocOK reports whether a sentinel error's own doc (or trailing
// comment) states its trigger in the "is returned when" form. The spec
// must document itself — a shared group comment cannot describe when each
// individual sentinel fires.
func sentinelDocOK(s *ast.ValueSpec) bool {
	for _, cg := range []*ast.CommentGroup{s.Doc, s.Comment} {
		if cg != nil && strings.Contains(cg.Text(), "is returned when") {
			return true
		}
	}
	return false
}

// receiverType extracts the receiver's type name, unwrapping pointers and
// generic instantiations.
func receiverType(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// checkReadmeSnippets extracts the fenced ```go blocks of README.md that
// declare a package and compiles each against the module via a replace
// directive, so API drift in the documentation fails CI.
func checkReadmeSnippets(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		fatal(err)
	}
	var findings []string
	for i, snippet := range goSnippets(string(data)) {
		if !strings.HasPrefix(strings.TrimSpace(snippet), "package ") {
			continue // fragment for illustration, not a compilable unit
		}
		if err := compileSnippet(root, snippet); err != nil {
			findings = append(findings, fmt.Sprintf("README.md: go snippet %d does not compile:\n%v", i+1, err))
		}
	}
	return findings
}

// goSnippets returns the bodies of the ```go fenced blocks in order.
func goSnippets(md string) []string {
	var out []string
	lines := strings.Split(md, "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimRight(lines[i], " ") != "```go" {
			continue
		}
		var body []string
		for i++; i < len(lines) && strings.TrimRight(lines[i], " ") != "```"; i++ {
			body = append(body, lines[i])
		}
		out = append(out, strings.Join(body, "\n")+"\n")
	}
	return out
}

// compileSnippet builds one snippet in a throwaway module that replaces
// the repro import with the working tree.
func compileSnippet(root, snippet string) error {
	dir, err := os.MkdirTemp("", "doccheck-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	gomod := fmt.Sprintf("module doccheck.snippet\n\ngo 1.22\n\nrequire repro v0.0.0\n\nreplace repro => %s\n", root)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "snippet.go"), []byte(snippet), 0o644); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", os.DevNull, ".")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%s", strings.TrimSpace(string(out)))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doccheck:", err)
	os.Exit(1)
}
