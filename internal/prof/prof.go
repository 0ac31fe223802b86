// Package prof is the guest-level sampling profiler and the
// OS/hardware counter layer behind `leapsbench -profile` / `-perf`.
//
// The profiler answers the question the span buckets and cycle
// models cannot: *which wasm functions and opcode classes* pay the
// bounds-check cost under each strategy. It is always compiled in
// and off by default; engines publish their current
// (function index, opcode class, check/elided flags) into a
// per-instance atomic cell, and a sampler goroutine reads every
// live cell at a configurable frequency. Instances created while
// the profiler is stopped receive a nil cell, so the disabled hot
// path costs one predictable nil-check branch per dispatched
// operation (interp) or one branch per invoke (compiled, which
// selects a separate uninstrumented loop).
//
// Sampling bias: the cell holds the *last dispatched* operation, so
// a sample charges the whole interval since the previous tick to
// whatever operation happened to be current. Long-running ops
// (memory.copy, hostcalls) are over-represented at low Hz; raise
// the rate or run longer to converge. See DESIGN.md §17.
package prof

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"leapsandbounds/internal/isa"
)

// Publication flags carried in the low byte of a cell value.
const (
	// FlagChecked marks a memory access that executes a software
	// bounds check under the current strategy (trap/clamp, check not
	// elided): the "bounds-check opcode class" of the profile.
	FlagChecked uint8 = 1 << 0
	// FlagElided marks a memory access whose check the elision pass
	// proved away (compiled engines only).
	FlagElided uint8 = 1 << 1
)

// cellActive distinguishes "running, current op is X" from "idle
// between invokes" (EndInvoke clears the cell to zero).
const cellActive = uint64(1) << 63

func pack(fn uint32, class isa.OpClass, flags uint8) uint64 {
	return cellActive | uint64(fn)<<24 | uint64(uint8(class))<<8 | uint64(flags)
}

// Cell is one instance's publication slot. Engines store the packed
// current operation with a single atomic write; the sampler reads it
// from its own goroutine. The padding keeps hot-loop writers on
// different instances off each other's cache line.
type Cell struct {
	cur atomic.Uint64
	_   [7]uint64

	engine   string
	strategy string
	names    []string
}

// Set publishes the current operation. Safe on a nil cell (no-op),
// but hot loops should hoist the nil check instead.
func (c *Cell) Set(fn uint32, class isa.OpClass, flags uint8) {
	if c == nil {
		return
	}
	c.cur.Store(pack(fn, class, flags))
}

// Idle marks the instance as between invokes so samples taken now
// count as idle time instead of charging the last executed op.
func (c *Cell) Idle() {
	if c == nil {
		return
	}
	c.cur.Store(0)
}

func (c *Cell) fnName(fn uint32) string {
	if int(fn) < len(c.names) && c.names[fn] != "" {
		return c.names[fn]
	}
	return "fn" + strconv.FormatUint(uint64(fn), 10)
}

// aggKey identifies one profile row.
type aggKey struct {
	engine   string
	strategy string
	fn       string
	class    isa.OpClass
	flags    uint8
}

// Profiler owns the registered cells and the sampler goroutine.
// Create with New, Start before instantiating the modules to be
// profiled, Stop before reading the final Snapshot.
type Profiler struct {
	hz int

	mu      sync.Mutex
	running bool
	cells   map[*Cell]struct{}
	agg     map[aggKey]int64
	samples int64
	idle    int64

	stop chan struct{}
	done chan struct{}
}

// DefaultHz is the sampling rate when none is given: a prime, so the
// sampler does not phase-lock with millisecond-periodic guest work.
const DefaultHz = 997

// New builds a stopped profiler sampling at hz (DefaultHz when
// hz <= 0).
func New(hz int) *Profiler {
	if hz <= 0 {
		hz = DefaultHz
	}
	return &Profiler{
		hz:    hz,
		cells: make(map[*Cell]struct{}),
		agg:   make(map[aggKey]int64),
	}
}

// Register hands out a live cell for one instance, or nil when the
// profiler is nil or stopped (instances created while stopped are
// not sampled, and their engines take the uninstrumented hot path).
func (p *Profiler) Register(engine, strategy string, names []string) *Cell {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.running {
		return nil
	}
	c := &Cell{engine: engine, strategy: strategy, names: names}
	p.cells[c] = struct{}{}
	return c
}

// Unregister removes a cell at instance close. Nil-safe.
func (p *Profiler) Unregister(c *Cell) {
	if p == nil || c == nil {
		return
	}
	p.mu.Lock()
	delete(p.cells, c)
	p.mu.Unlock()
}

// Start launches the sampler goroutine. Idempotent.
func (p *Profiler) Start() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.running {
		p.mu.Unlock()
		return
	}
	p.running = true
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	stop, done := p.stop, p.done
	p.mu.Unlock()

	interval := time.Second / time.Duration(p.hz)
	if interval <= 0 {
		interval = time.Millisecond
	}
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				p.tick()
			}
		}
	}()
}

// Stop halts the sampler and waits for its final tick. Registered
// cells stay valid (publication keeps working, unsampled). Idempotent.
func (p *Profiler) Stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.running {
		p.mu.Unlock()
		return
	}
	p.running = false
	stop, done := p.stop, p.done
	p.mu.Unlock()
	close(stop)
	<-done
}

func (p *Profiler) tick() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.cells {
		v := c.cur.Load()
		if v&cellActive == 0 {
			p.idle++
			continue
		}
		fn := uint32(v >> 24)
		class := isa.OpClass(uint8(v >> 8))
		flags := uint8(v)
		p.agg[aggKey{c.engine, c.strategy, c.fnName(fn), class, flags}]++
		p.samples++
	}
}

// Row is one (engine, strategy, function, opcode class, flags)
// bucket of the profile.
type Row struct {
	Engine   string  `json:"engine,omitempty"`
	Strategy string  `json:"strategy"`
	Func     string  `json:"func"`
	Class    string  `json:"class"`
	Checked  bool    `json:"checked,omitempty"`
	Elided   bool    `json:"elided,omitempty"`
	Count    int64   `json:"count"`
	Share    float64 `json:"share"`
}

// Profile is a drained snapshot of the sampler's aggregation.
type Profile struct {
	Hz      int   `json:"hz"`
	Samples int64 `json:"samples"`
	Idle    int64 `json:"idle"`
	Rows    []Row `json:"rows"`
}

// Snapshot returns the accumulated profile, sorted by sample count
// (descending) with a deterministic tie-break.
func (p *Profiler) Snapshot() Profile {
	if p == nil {
		return Profile{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pr := Profile{Hz: p.hz, Samples: p.samples, Idle: p.idle}
	for k, n := range p.agg {
		pr.Rows = append(pr.Rows, Row{
			Engine:   k.engine,
			Strategy: k.strategy,
			Func:     k.fn,
			Class:    k.class.String(),
			Checked:  k.flags&FlagChecked != 0,
			Elided:   k.flags&FlagElided != 0,
			Count:    n,
			Share:    float64(n) / float64(max64(p.samples, 1)),
		})
	}
	sort.Slice(pr.Rows, func(i, j int) bool {
		a, b := &pr.Rows[i], &pr.Rows[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.frame() < b.frame()
	})
	return pr
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// frame renders the row as one folded-stack line (without the
// count): engine;strategy;function;class, with "!check" marking a
// software-checked access and "~elided" an elision-removed one.
func (r *Row) frame() string {
	cls := r.Class
	if r.Checked {
		cls += "!check"
	} else if r.Elided {
		cls += "~elided"
	}
	eng := r.Engine
	if eng == "" {
		eng = "wasm"
	}
	return eng + ";" + r.Strategy + ";" + r.Func + ";" + cls
}

// CheckShare returns the fraction of a strategy's samples that
// landed on software bounds-check work (FlagChecked): the profiler's
// figure-level claim is that this is large under trap/clamp and zero
// under the guard-page strategies.
func (pr *Profile) CheckShare(strategy string) float64 {
	var total, checked int64
	for i := range pr.Rows {
		r := &pr.Rows[i]
		if r.Strategy != strategy {
			continue
		}
		total += r.Count
		if r.Checked {
			checked += r.Count
		}
	}
	if total == 0 {
		return 0
	}
	return float64(checked) / float64(total)
}

// StrategySamples returns the total samples attributed to strategy.
func (pr *Profile) StrategySamples(strategy string) int64 {
	var total int64
	for i := range pr.Rows {
		if pr.Rows[i].Strategy == strategy {
			total += pr.Rows[i].Count
		}
	}
	return total
}

// WriteFolded writes the profile in folded-stack format (one
// semicolon-joined stack plus a count per line), directly consumable
// by flamegraph.pl / speedscope / inferno.
func (pr *Profile) WriteFolded(w io.Writer) error {
	for i := range pr.Rows {
		r := &pr.Rows[i]
		if _, err := fmt.Fprintf(w, "%s %d\n", r.frame(), r.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable writes a human-readable top-N table.
func (pr *Profile) WriteTable(w io.Writer, n int) error {
	if _, err := fmt.Fprintf(w, "samples %d (idle %d) @ %d Hz\n", pr.Samples, pr.Idle, pr.Hz); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s %-10s %-20s %-18s %8s %7s\n",
		"ENGINE", "STRATEGY", "FUNC", "CLASS", "SAMPLES", "SHARE"); err != nil {
		return err
	}
	for i := range pr.Rows {
		if n > 0 && i >= n {
			break
		}
		r := &pr.Rows[i]
		cls := r.Class
		if r.Checked {
			cls += "!check"
		} else if r.Elided {
			cls += "~elided"
		}
		if _, err := fmt.Fprintf(w, "%-10s %-10s %-20s %-18s %8d %6.1f%%\n",
			r.Engine, r.Strategy, r.Func, cls, r.Count, r.Share*100); err != nil {
			return err
		}
	}
	return nil
}
