package core

import (
	"errors"
	"fmt"

	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/wasm"
)

// NewSharedMemory builds a wasm-threads-style shared linear memory
// sized for module m under cfg, for attaching to many instances via
// Config.SharedMem. The limits computation matches what a private
// instantiation of m would produce (module min, module max clamped by
// cfg.MaxPages), so a thread group sees the same geometry a lone
// instance would. The caller owns the memory's lifetime: instances
// attached to it do not close it.
func NewSharedMemory(m *wasm.Module, cfg Config) (*mem.Memory, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	lim, ok := m.MemoryLimits()
	if !ok {
		return nil, errors.New("core: module declares no memory")
	}
	mm, err := cfg.newMemory(lim, nil, true, cfg.Span)
	if err != nil {
		return nil, fmt.Errorf("core: shared memory: %w", err)
	}
	return mm, nil
}
