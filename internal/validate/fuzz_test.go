package validate_test

import (
	"reflect"
	"testing"

	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/wasm"
	"leapsandbounds/internal/workloads"
)

// FuzzValidate drives the validator with arbitrary bytes, through both
// ways from bytes to a validated module. Module must return (an error
// or nil), never panic — malformed-but-decodable modules (bad indices,
// type confusion, truncated bodies) are exactly what the validator
// exists to reject gracefully before an engine dereferences them. And
// Decode, which type-checks each body as it is decoded, must agree with
// wasm.Decode followed by Module: the same error text, or both accept a
// structurally equal module that carries the validated mark.
func FuzzValidate(f *testing.F) {
	for _, spec := range workloads.All() {
		m, _ := spec.Build(workloads.Test)
		if bin, err := wasm.Encode(m); err == nil {
			f.Add(bin)
			c := append([]byte(nil), bin...)
			c[len(c)/2] ^= 0xff
			f.Add(c)
		}
	}
	for _, c := range faultModules {
		f.Add(c.in)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fused, ferr := validate.Decode(data)
		m, err := twoPass(data)
		switch {
		case err != nil || ferr != nil:
			if err == nil || ferr == nil || err.Error() != ferr.Error() || fused != nil {
				t.Fatalf("Decode: %v, error %v; wasm.Decode + Module: error %v", fused, ferr, err)
			}
		case !fused.Validated() || !reflect.DeepEqual(fused, m):
			t.Fatalf("Decode accepted a module that is not marked valid (%v) or differs from wasm.Decode's", fused.Validated())
		}
	})
}
