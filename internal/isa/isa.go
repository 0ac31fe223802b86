// Package isa defines the three evaluated hardware profiles —
// x86-64 (Intel Xeon Gold 6230R), Armv8 (Cavium ThunderX2 CN9980)
// and RISC-V RV64GC (XuanTie C906 on the Nezha D1) — as parameter
// sets for the simulated machine: virtual-memory behaviour
// (page sizes, transparent-huge-page limits, TLB shootdown costs)
// and a per-operation-class cycle model.
//
// The cycle model stands in for the native code generation the real
// runtimes perform per ISA: engines count executed operations by
// class, and a profile prices those counts in cycles (then seconds
// at the core clock). Costs are throughput-oriented estimates for
// each microarchitecture; the figure-level comparisons depend on
// their relative magnitudes, not their absolute accuracy.
package isa

import (
	"time"

	"leapsandbounds/internal/vmm"
)

// OpClass classifies executed operations for cycle accounting.
type OpClass int

// Operation classes.
const (
	ClassALU        OpClass = iota // integer add/sub/logic/shift/compare
	ClassMul                       // integer multiply
	ClassDivI                      // integer divide/remainder
	ClassFAdd                      // FP add/sub/compare/abs/neg
	ClassFMul                      // FP multiply
	ClassFDiv                      // FP divide / sqrt
	ClassConv                      // int<->float conversions
	ClassLoad                      // memory load (address generation + access)
	ClassStore                     // memory store
	ClassBranch                    // conditional/unconditional branch
	ClassCall                      // direct call
	ClassCallInd                   // indirect call (table dispatch)
	ClassSelect                    // conditional select (cmov-like)
	ClassGlobal                    // global variable access
	ClassCheckTrap                 // software bounds check: compare + branch-to-trap
	ClassCheckClamp                // software bounds check: clamp sequence (cmp+select on the address path)
	ClassHostcall                  // guest→host boundary crossing (WASI hostcall)
	ClassDispatch                  // interpreter dispatch overhead per instruction
	NumClasses
)

var classNames = [NumClasses]string{
	"alu", "mul", "divi", "fadd", "fmul", "fdiv", "conv",
	"load", "store", "branch", "call", "callind", "select",
	"global", "checktrap", "checkclamp", "hostcall", "dispatch",
}

func (c OpClass) String() string {
	if c >= 0 && int(c) < len(classNames) {
		return classNames[c]
	}
	return "opclass(?)"
}

// Counts accumulates executed operations by class. Engines add to it
// on the hot path; it is not safe for concurrent use (each instance
// owns one).
type Counts [NumClasses]int64

// Total returns the total operation count.
func (c *Counts) Total() int64 {
	var t int64
	for _, v := range c {
		t += v
	}
	return t
}

// CostModel prices one operation of each class in CPU cycles
// (throughput-amortized: a 4-wide out-of-order core executes simple
// ALU operations at an effective 0.25-0.35 cycles each).
type CostModel [NumClasses]float64

// Profile is one hardware configuration from the paper's §3.4.
type Profile struct {
	// Name is the short identifier used in figures: x86_64, aarch64,
	// riscv64.
	Name string
	// CPU describes the hardware modelled.
	CPU string
	// Cores is the number of hardware threads (16, 16, 1).
	Cores int
	// ClockGHz converts cycles to seconds.
	ClockGHz float64
	// VM parameterizes the simulated kernel memory subsystem.
	VM vmm.Config
	// Cost is the per-class cycle model.
	Cost CostModel
}

// Cycles prices a count vector in cycles.
func (p *Profile) Cycles(c *Counts) float64 {
	var total float64
	for i, n := range c {
		total += float64(n) * p.Cost[i]
	}
	return total
}

// Time converts a count vector to simulated wall time on one core.
func (p *Profile) Time(c *Counts) time.Duration {
	return time.Duration(p.Cycles(c) / p.ClockGHz)
}

// X86_64 models the Intel Xeon Gold 6230R host (Cascade Lake,
// 16 hardware threads enabled in the paper's configuration). A wide
// out-of-order core: cheap ALU throughput, cmov at ALU cost,
// well-predicted branches nearly free, 1 GiB transparent huge pages.
func X86_64() *Profile {
	return &Profile{
		Name:     "x86_64",
		CPU:      "Intel Xeon Gold 6230R",
		Cores:    16,
		ClockGHz: 2.1,
		VM: vmm.Config{
			PageSize:           4096,
			THPSize:            1 << 30,
			ShootdownBase:      1200 * time.Nanosecond,
			ShootdownPerThread: 300 * time.Nanosecond,
			MprotectPerPage:    4 * time.Nanosecond,
			MmapBase:           600 * time.Nanosecond,
		},
		Cost: CostModel{
			ClassALU: 0.30, ClassMul: 1.0, ClassDivI: 18,
			ClassFAdd: 0.5, ClassFMul: 0.5, ClassFDiv: 7, ClassConv: 1.0,
			ClassLoad: 0.6, ClassStore: 1.0,
			ClassBranch: 0.4, ClassCall: 2.0, ClassCallInd: 6.0,
			ClassSelect: 0.5, ClassGlobal: 0.6,
			// Software checks: trap = cmp+predicted-branch fused;
			// clamp = cmp+cmov on the address critical path, which
			// lengthens the load-to-use chain.
			ClassCheckTrap: 0.8, ClassCheckClamp: 1.4,
			// Hostcall: register spill + indirect into the host ABI
			// and back.
			ClassHostcall: 60,
			ClassDispatch: 4.0,
		},
	}
}

// ARMv8 models the Cavium ThunderX2 CN9980 (16 hardware threads in
// the paper's configuration): out-of-order but narrower than the
// Xeon, 2 MiB transparent huge pages, slightly costlier shootdowns
// (broadcast TLBI).
func ARMv8() *Profile {
	return &Profile{
		Name:     "aarch64",
		CPU:      "Cavium ThunderX2 CN9980",
		Cores:    16,
		ClockGHz: 2.5,
		VM: vmm.Config{
			PageSize:           4096,
			THPSize:            2 << 20,
			ShootdownBase:      1500 * time.Nanosecond,
			ShootdownPerThread: 350 * time.Nanosecond,
			MprotectPerPage:    5 * time.Nanosecond,
			MmapBase:           700 * time.Nanosecond,
		},
		Cost: CostModel{
			ClassALU: 0.40, ClassMul: 1.2, ClassDivI: 20,
			ClassFAdd: 0.7, ClassFMul: 0.7, ClassFDiv: 9, ClassConv: 1.2,
			ClassLoad: 0.8, ClassStore: 1.2,
			ClassBranch: 0.5, ClassCall: 2.5, ClassCallInd: 7.0,
			ClassSelect: 0.6, ClassGlobal: 0.8,
			ClassCheckTrap: 1.0, ClassCheckClamp: 1.7,
			// A slightly dearer boundary than the Xeon's.
			ClassHostcall: 70,
			ClassDispatch: 5.0,
		},
	}
}

// riscv64 models the XuanTie C906 on the Nezha D1: a single-issue
// in-order RV64GC core at 1 GHz with 1 GiB of RAM, no THP, and no
// SMP (shootdowns are trivial on one hart). Every instruction costs
// about a cycle; there is no conditional move, so clamp sequences
// lower to short branch+arith sequences that are relatively cheaper
// than on the wide cores, while everything else is much slower.
func riscv64() *Profile {
	return &Profile{
		Name:     "riscv64",
		CPU:      "XuanTie C906 (Nezha D1)",
		Cores:    1,
		ClockGHz: 1.0,
		VM: vmm.Config{
			PageSize:           4096,
			THPSize:            0,
			ShootdownBase:      400 * time.Nanosecond, // local flush only
			ShootdownPerThread: 0,
			MprotectPerPage:    12 * time.Nanosecond,
			MmapBase:           1500 * time.Nanosecond,
		},
		Cost: CostModel{
			ClassALU: 1.0, ClassMul: 3.0, ClassDivI: 35,
			ClassFAdd: 2.0, ClassFMul: 2.0, ClassFDiv: 16, ClassConv: 2.5,
			ClassLoad: 2.0, ClassStore: 2.0,
			ClassBranch: 1.5, ClassCall: 4.0, ClassCallInd: 10.0,
			ClassSelect: 2.0, ClassGlobal: 2.0,
			ClassCheckTrap: 2.5, ClassCheckClamp: 3.0,
			// Boundary crossings hurt on the in-order single-issue
			// core.
			ClassHostcall: 120,
			ClassDispatch: 12.0,
		},
	}
}

// Profiles returns all three hardware profiles in paper order.
func Profiles() []*Profile {
	return []*Profile{X86_64(), ARMv8(), riscv64()}
}

// ByName returns the profile with the given name, or nil.
func ByName(name string) *Profile {
	for _, p := range Profiles() {
		if p.Name == name {
			return p
		}
	}
	return nil
}
