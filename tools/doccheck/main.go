// Command doccheck is the CI documentation gate: it fails when a package
// is missing a package-level doc comment or when an exported top-level
// identifier (type, function, method, or const/var group) is missing a doc
// comment. Test files and example files are exempt from that rule. It also
// fails when a comment in any Go file, test files included, names a
// repo-relative *.md file that does not exist: the name is looked up in
// the file's directory and in each parent up to the module root.
//
// Usage:
//
//	go run ./tools/doccheck [dir ...]
//
// Each dir is walked recursively; without arguments the current directory
// is walked. Exit status 1 reports violations, one per line, as
// file:line: message.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var violations []string
	for _, root := range roots {
		v, err := checkTree(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		violations = append(violations, v...)
	}
	sort.Strings(violations)
	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented exported identifiers or packages, or missing *.md references\n", len(violations))
		os.Exit(1)
	}
}

// checkTree walks root, checks every non-test Go file's doc coverage and
// every Go file's *.md references.
func checkTree(root string) ([]string, error) {
	var violations []string
	packageHasDoc := map[string]bool{}  // dir -> any file carries a package comment
	packageFirst := map[string]string{} // dir -> representative file for the report
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		v, err := checkRefs(fset, file, dir)
		if err != nil {
			return err
		}
		violations = append(violations, v...)
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if file.Doc != nil {
			packageHasDoc[dir] = true
		}
		if _, ok := packageFirst[dir]; !ok {
			packageFirst[dir] = path
		}
		violations = append(violations, checkFile(fset, file)...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for dir, first := range packageFirst {
		if !packageHasDoc[dir] {
			violations = append(violations, fmt.Sprintf("%s:1: package in %s has no package doc comment", first, dir))
		}
	}
	return violations, nil
}

// mdRef matches a word naming a relative *.md file, with the quotes,
// brackets and punctuation prose puts around it. Absolute paths and URLs
// do not match: their first character is a slash or they contain "://".
var mdRef = regexp.MustCompile("^[`\"'(\\[]*([A-Za-z0-9_][A-Za-z0-9_./-]*\\.md)(?:'s)?[`\"')\\],.;:!?]*$")

// checkRefs reports every comment word in file naming a *.md file that
// mdExists does not find from dir.
func checkRefs(fset *token.FileSet, file *ast.File, dir string) ([]string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, group := range file.Comments {
		for _, c := range group.List {
			for i, line := range strings.Split(c.Text, "\n") {
				for _, word := range strings.Fields(line) {
					m := mdRef.FindStringSubmatch(word)
					if m == nil || strings.Contains(word, "://") || mdExists(abs, m[1]) {
						continue
					}
					p := fset.Position(c.Pos())
					out = append(out, fmt.Sprintf("%s:%d: comment refers to %s, which does not exist", p.Filename, p.Line+i, m[1]))
				}
			}
		}
	}
	return out, nil
}

// mdExists reports whether ref names a file in dir or in one of its
// parents up to the module root (the nearest ancestor holding go.mod;
// without one, the file system root).
func mdExists(dir, ref string) bool {
	for {
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(ref))); err == nil {
			return true
		}
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return false
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return false
		}
		dir = parent
	}
}

// checkFile reports exported top-level declarations without doc comments.
func checkFile(fset *token.FileSet, file *ast.File) []string {
	var out []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil {
				if recvType, exported := receiverName(d.Recv); !exported {
					continue // methods on unexported types are internal API
				} else {
					report(d.Pos(), "exported method %s.%s has no doc comment", recvType, d.Name.Name)
					continue
				}
			}
			report(d.Pos(), "exported function %s has no doc comment", d.Name.Name)
		case *ast.GenDecl:
			// A doc comment on the const/var/type block covers the block.
			blockDocumented := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !blockDocumented && s.Doc == nil {
						report(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
					}
				case *ast.ValueSpec:
					if blockDocumented || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							report(s.Pos(), "exported %s %s has no doc comment", d.Tok, name.Name)
							break
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName extracts the receiver's type name and whether it is
// exported.
func receiverName(recv *ast.FieldList) (string, bool) {
	if len(recv.List) == 0 {
		return "", false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name, tt.IsExported()
		default:
			return "", false
		}
	}
}
