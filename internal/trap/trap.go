// Package trap defines WebAssembly trap values shared by all
// engines and the linear-memory layer. Traps propagate as panics
// inside engine execution and are converted to errors at the
// public Invoke boundary.
package trap

import "fmt"

// Kind enumerates the trap causes defined by the specification plus
// runtime-specific ones.
type Kind int

// Trap kinds.
const (
	OutOfBounds Kind = iota
	DivByZero
	IntOverflow
	InvalidConversion
	Unreachable
	IndirectCallNull
	IndirectCallType
	TableOutOfBounds
	StackOverflow
	MemoryLimit // memory.grow beyond max (not a trap in wasm; grow returns -1; used for internal errors)
	HostError
)

var kindNames = map[Kind]string{
	OutOfBounds:       "out of bounds memory access",
	DivByZero:         "integer divide by zero",
	IntOverflow:       "integer overflow",
	InvalidConversion: "invalid conversion to integer",
	Unreachable:       "unreachable executed",
	IndirectCallNull:  "uninitialized table element",
	IndirectCallType:  "indirect call type mismatch",
	TableOutOfBounds:  "undefined table element",
	StackOverflow:     "call stack exhausted",
	MemoryLimit:       "memory limit exceeded",
	HostError:         "host error",
}

// String returns the specification-style description of the kind.
func (k Kind) String() string {
	if name, ok := kindNames[k]; ok {
		return name
	}
	return fmt.Sprintf("trap(%d)", int(k))
}

// Trap is the panic value engines throw; it satisfies error.
type Trap struct {
	Kind   Kind
	Detail string
	// Err carries a wrapped host error (e.g. a WASI exit), exposed
	// through errors.Unwrap.
	Err error
}

func (t *Trap) Error() string {
	name := kindNames[t.Kind]
	if t.Err != nil {
		return fmt.Sprintf("wasm trap: %s: %v", name, t.Err)
	}
	if t.Detail == "" {
		return "wasm trap: " + name
	}
	return fmt.Sprintf("wasm trap: %s (%s)", name, t.Detail)
}

// Unwrap exposes the wrapped host error.
func (t *Trap) Unwrap() error { return t.Err }

// ThrowHostErr panics with a HostError trap wrapping err, preserving
// it for errors.As at the Invoke boundary.
func ThrowHostErr(err error) {
	panic(&Trap{Kind: HostError, Err: err})
}

// Throw panics with a trap of the given kind.
func Throw(kind Kind) {
	panic(&Trap{Kind: kind})
}

// Throwf panics with a trap carrying detail text.
func Throwf(kind Kind, format string, args ...any) {
	panic(&Trap{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Recover converts a recovered panic value into a *Trap error,
// re-panicking for non-trap values. Use as:
//
//	defer func() {
//		if r := recover(); r != nil {
//			err = trap.Recover(r)
//		}
//	}()
func Recover(r any) error {
	if t, ok := r.(*Trap); ok {
		return t
	}
	panic(r)
}
