package wasm

// Unmarked returns a copy of m without the validated mark, which is the
// validator's and not the codec's: a built module carries it, its
// re-decode does not, and the codec tests compare everything else.
func (m *Module) Unmarked() *Module {
	cp := *m
	cp.validated = 0
	return &cp
}
