// Package good is a fully documented fixture: every exported identifier
// carries a doc comment, so doccheck must report nothing. Its *.md
// references all resolve: NOTES.md sits beside this file, and
// (README.md) is found by walking up to the module root. URLs such as
// https://example.com/GONE.md and absolute paths such as /nowhere/GONE.md
// are not repo-relative and are never looked up.
package good

// Answer is a documented exported const.
const Answer = 42

// Grouped consts share the block comment.
const (
	One = 1
	Two = 2
)

// Name is a documented exported var.
var Name = "good"

// Thing is a documented exported type.
type Thing struct{}

// Do is a documented exported method.
func (t Thing) Do() {}

// Run is a documented exported function.
func Run() {}

type hidden struct{}

func (h hidden) poke() {}

func internal() {}

// EOL-commented exported values pass too.
var (
	Port = 80 // Port is the default port.
)
