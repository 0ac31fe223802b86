package wasm

import (
	"crypto/sha256"
	"encoding/hex"
)

// Hash is the stable content hash of a module: the SHA-256 of its
// binary encoding. Two modules with the same hash decode to the same
// program, so the hash is a sound content address for compiled
// artifacts (internal/modcache keys its cache on it).
type Hash [sha256.Size]byte

// String renders a short hex prefix, enough to label cache entries
// and log lines without drowning them.
func (h Hash) String() string { return hex.EncodeToString(h[:8]) }

// ContentHash computes the module's content hash by encoding it to
// the binary format and hashing the bytes. The encoding is
// deterministic (section order is fixed, name-section keys are
// sorted), so structurally equal modules always hash equal. Callers
// that hash the same module repeatedly should memoize: the dominant
// cost is re-encoding, which is linear in module size.
func (m *Module) ContentHash() (Hash, error) {
	data, err := Encode(m)
	if err != nil {
		return Hash{}, err
	}
	return sha256.Sum256(data), nil
}
