package main

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckTreeGoodFixture: a fully documented tree, including a nested
// package and a testdata subdirectory full of undocumented code that the
// walk must skip, yields zero violations.
func TestCheckTreeGoodFixture(t *testing.T) {
	violations, err := checkTree(filepath.Join("testdata", "good"))
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("good fixture reported %d violations:\n%s",
			len(violations), strings.Join(violations, "\n"))
	}
}

// TestCheckTreeBadFixture pins every violation class: missing package
// doc, undocumented exported const, type, method, and function, and
// comments naming *.md files that do not exist — while unexported
// identifiers, methods on unexported types, and _test.go files stay
// exempt from the doc rule (but not from the reference rule).
func TestCheckTreeBadFixture(t *testing.T) {
	violations, err := checkTree(filepath.Join("testdata", "bad"))
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{
		"has no package doc comment",
		"exported const Bare has no doc comment",
		"exported type Widget has no doc comment",
		"exported method Widget.Spin has no doc comment",
		"exported function Exported has no doc comment",
		"bad.go:3: comment refers to MISSING.md, which does not exist",
		"bad_test.go:3: comment refers to docs/GONE.md, which does not exist",
	}
	if len(violations) != len(wants) {
		t.Fatalf("bad fixture reported %d violations, want %d:\n%s",
			len(violations), len(wants), strings.Join(violations, "\n"))
	}
	joined := strings.Join(violations, "\n")
	for _, want := range wants {
		if !strings.Contains(joined, want) {
			t.Errorf("missing violation %q in:\n%s", want, joined)
		}
	}
	for _, exempt := range []string{"unexportedIsFine", "Quiet", "TestExemptFromDoccheck"} {
		if strings.Contains(joined, exempt) {
			t.Errorf("exempt identifier %q reported:\n%s", exempt, joined)
		}
	}
	// Every violation is file:line: message — the format CI consumers
	// (and editors) rely on.
	for _, v := range violations {
		parts := strings.SplitN(v, ":", 3)
		if len(parts) != 3 || parts[1] == "" {
			t.Errorf("violation not in file:line: message form: %q", v)
		}
	}
}

// TestCheckTreeDotRoot: the walk root itself is never skipped, even when
// its name is "." — the name every dot-directory check would match.
func TestCheckTreeDotRoot(t *testing.T) {
	t.Chdir(filepath.Join("testdata", "bad"))
	violations, err := checkTree(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 7 {
		t.Fatalf("checkTree(\".\") in the bad fixture reported %d violations, want 7:\n%s",
			len(violations), strings.Join(violations, "\n"))
	}
}

// TestCheckTreeMissingRoot: a nonexistent root is an error, not a pass.
func TestCheckTreeMissingRoot(t *testing.T) {
	if _, err := checkTree(filepath.Join("testdata", "nope")); err == nil {
		t.Fatal("missing root did not error")
	}
}

// TestCheckFileBlockDoc: a doc comment on a const/var/type block covers
// every spec in the block (the grouped-decl rule checkTree relies on).
func TestCheckFileBlockDoc(t *testing.T) {
	src := `package x

// Block comment covers the group.
const (
	A = 1
	B = 2
)

// Types too.
type (
	T1 struct{}
	T2 struct{}
)
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "block.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if out := checkFile(fset, file); len(out) != 0 {
		t.Fatalf("documented blocks reported: %v", out)
	}
}

// TestCheckFileGenericReceiver: methods on generic exported types are
// checked through the IndexExpr receiver path.
func TestCheckFileGenericReceiver(t *testing.T) {
	src := `package x

// List is documented.
type List[T any] struct{}

func (l *List[T]) Push(v T) {}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "generic.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	out := checkFile(fset, file)
	if len(out) != 1 || !strings.Contains(out[0], "List.Push") {
		t.Fatalf("generic receiver check = %v, want one List.Push violation", out)
	}
}
