// Package nested proves the walk recurses into subdirectories, and that
// a reference to NOTES.md resolves in a parent directory.
package nested

// Depth is documented.
const Depth = 2
