// Template instances: instantiate once, warm, snapshot, fork.
//
// A serverless host instantiates the same module millions of times;
// the paper's worst case is exactly that churn serializing on the
// mmap lock. A Template amortizes it: one donor instance runs the
// warm-up invoke, its full state (linear memory image, globals,
// table) is frozen into a StateSnapshot, and every subsequent request
// is served by Fork — a copy-on-write re-map of the template's pages
// through internal/vmm, with compiled code reused via the module
// cache so forks never recompile.
package core

import (
	"errors"
	"fmt"
	"slices"

	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/obs"
)

// StateSnapshot is the frozen state of one warmed instance: the
// memory image (nil when the module declares no memory) plus globals
// and table. It is immutable and safe to share across any number of
// concurrent forks, independent of the donor's lifetime.
type StateSnapshot struct {
	Mem     *mem.Snapshot
	Globals []uint64
	Table   []uint32
	Filled  []bool
}

// Snapshot freezes the base's state. The memory image is copied, so
// the donor may keep running (or close) without affecting forks.
func (b *InstanceBase) Snapshot() (*StateSnapshot, error) {
	sp := b.Cfg.Obs.StartSpan(obs.SpanSnapshot, b.Cfg.Span)
	defer sp.End()
	snap := &StateSnapshot{
		Globals: slices.Clone(b.Globals),
		Table:   slices.Clone(b.Table),
		Filled:  slices.Clone(b.Filled),
	}
	if b.Mem != nil {
		ms, err := b.Mem.Snapshot()
		if err != nil {
			return nil, err
		}
		snap.Mem = ms
	}
	return snap, nil
}

// Template is a warmed, frozen instance of a compiled module that
// serves forks. Safe for concurrent Fork calls: all state is
// immutable after NewTemplate returns.
type Template struct {
	mod     CompiledModule
	cfg     Config
	imports Imports
	snap    *StateSnapshot
}

// NewTemplate instantiates cm once under cfg, runs the warm function
// on the donor (typically an init invoke that faults in the working
// set), snapshots its state, and closes the donor. The config is
// normalized once here so every fork shares the template's address
// space and arena pool.
//
// A nil warm function snapshots the freshly-instantiated state (data
// segments applied, start function run) — still useful, as forks
// skip instantiation's segment writes and, for the virtual-memory
// strategies, defer page duplication to first access.
func NewTemplate(cm CompiledModule, cfg Config, imports Imports, warm func(Instance) error) (*Template, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.SharedMem != nil {
		// A shared memory has racing writers; freezing it mid-traffic
		// would tear, and a fork of one thread of a thread group is not
		// a meaningful isolate. Refuse before the donor attaches to it.
		return nil, errors.New("core: cannot build a template from a shared-memory instance")
	}
	inst, err := InstantiateWithRetry(cm, cfg, imports)
	if err != nil {
		return nil, fmt.Errorf("core: template instantiation: %w", err)
	}
	defer inst.Close()
	if warm != nil {
		if err := warm(inst); err != nil {
			return nil, fmt.Errorf("core: template warm-up: %w", err)
		}
	}
	snap, err := inst.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("core: template snapshot: %w", err)
	}
	return &Template{mod: cm, cfg: cfg, imports: imports, snap: snap}, nil
}

// Fork creates one instance from the template under its own
// configuration — the common serving path.
func (t *Template) Fork() (Instance, error) { return t.ForkWith(t.cfg) }

// ForkWith creates one instance from the template under cfg (callers
// typically repoint Config.Span per request, or fork into a different
// strategy for ablations). A nil Profile or AS inherits the
// template's, so forks land in the same simulated process by default.
// Injected transient faults are retried exactly as the donor's
// instantiation retried them.
func (t *Template) ForkWith(cfg Config) (Instance, error) {
	if cfg.Profile == nil {
		cfg.Profile = t.cfg.Profile
	}
	if cfg.AS == nil {
		cfg.AS = t.cfg.AS
	}
	return instantiateWithRetry(t.mod, cfg, t.imports, t.snap)
}
