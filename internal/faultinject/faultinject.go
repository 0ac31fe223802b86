// Package faultinject is the seed-deterministic fault-injection
// layer for the simulated memory-management stack. The paper's whole
// argument turns on what happens when a guarded access faults —
// SIGSEGV + mprotect repair, userfaultfd population, or a software
// check (§3.1, §5) — and those fault-delivery paths are exactly the
// code that only ever runs on the happy path in ordinary benchmarks.
// This package lets every strategy be driven through injected faults
// deterministically: transient mprotect/commit failures, delayed or
// dropped page-fault delivery, uffd arena-pool exhaustion and
// registry contention, and memory.grow failures at chosen page
// counts.
//
// Determinism contract: an injection decision for site s is a pure
// function of (Plan.Seed, s, n) where n is the number of prior
// evaluations of s. Single-threaded runs therefore replay
// byte-identically under the same plan; multi-threaded runs keep
// per-site sequences stable but interleave them by scheduling. The
// chaos regression tests and `leapsbench -chaos` rely on the
// single-threaded form.
//
// Every injection and every recovery (a retry or fallback that
// succeeded after an injected failure) is counted in the obs
// registry under the injector's scope, so a metrics dump attributes
// exactly which sites fired and which degradations absorbed them.
package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"leapsandbounds/internal/obs"
)

// Site identifies one injectable fault site in the vmm/mem stack.
type Site uint8

// The injectable sites.
const (
	// SiteMmap: a transient mmap failure (the kernel's ENOMEM under
	// address-space pressure). Hit by instantiation and arena creation.
	SiteMmap Site = iota
	// SiteMprotect: a transient mprotect/commit failure. Hit by the
	// SIGSEGV repair path, eager-commit instantiation, and grow.
	SiteMprotect
	// SiteUffdZero: a transient UFFDIO_ZEROPAGE failure in the uffd
	// population path.
	SiteUffdZero
	// SiteUffdDelay: delayed fault delivery — the handler observes the
	// fault late (Plan.Delay of busy-wait before resolution).
	SiteUffdDelay
	// SiteFaultDrop: dropped fault delivery — the simulated kernel
	// loses the fault event and the access must re-fault.
	SiteFaultDrop
	// SitePoolGet: uffd arena-pool exhaustion — arena acquisition
	// fails as if no address space were left for a new reservation.
	SitePoolGet
	// SitePoolContention: arena-registry contention — pool operations
	// stall for Plan.Delay, as a contended registry would.
	SitePoolContention
	// SiteGrow: memory.grow fails (returns -1) even though the limit
	// would allow it, as a real allocator under commit pressure does.
	SiteGrow
	numSites
)

var siteNames = [numSites]string{
	"mmap", "mprotect", "uffd_zero", "uffd_delay",
	"fault_drop", "pool_get", "pool_contention", "grow",
}

func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// ChaosPlan is the plan behind the chaos regression tests and
// `leapsbench -chaos`: every transient site at rate 0.15. SiteGrow
// stays off: grow failure is spec-visible (memory.grow returns -1), so
// injecting it would legitimately change workload results, and the
// chaos invariant is that transient faults never do.
func ChaosPlan(seed int64) *Plan {
	return &Plan{
		Seed: seed,
		Rate: 0.15,
		Sites: []Site{
			SiteMmap, SiteMprotect, SiteUffdZero, SiteUffdDelay,
			SiteFaultDrop, SitePoolGet, SitePoolContention,
		},
	}
}

// ReplayCounters keeps the counters of a registry snapshot that a
// single-threaded run must reproduce exactly under the same plan:
// injections, recoveries, degradations. Timing histograms and syscall
// tallies from warmup scheduling are legitimately run-to-run noise.
func ReplayCounters(all map[string]int64) map[string]int64 {
	kept := make(map[string]int64)
	for name, v := range all {
		if strings.Contains(name, "faultinject/") ||
			strings.Contains(name, "failures/") ||
			strings.Contains(name, "uffd_fallbacks") ||
			strings.Contains(name, "injected_traps") {
			kept[name] = v
		}
	}
	return kept
}

// Error is the transient failure returned (or wrapped) by an
// injected fault. Recovery code treats it as retryable; everything
// else coming out of vmm is a genuine, permanent error.
type Error struct {
	Site Site
	// N is the 1-based occurrence number of the site when it fired,
	// so a failing run names the exact decision to replay.
	N int64
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: transient %s failure (injection #%d)", e.Site, e.N)
}

// IsTransient reports whether err is (or wraps) an injected
// transient fault, and if so which site fired.
func IsTransient(err error) (Site, bool) {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Site, true
	}
	return 0, false
}

// Plan configures deterministic injection. The zero value injects
// nothing.
type Plan struct {
	// Seed determines every injection decision; two runs with equal
	// plans make identical per-site decision sequences.
	Seed int64
	// Rate is the per-evaluation injection probability in [0, 1],
	// applied at every enabled site.
	Rate float64
	// Sites enables specific sites; an empty slice enables none.
	Sites []Site
	// GrowFailPages, when non-empty, restricts SiteGrow to fire only
	// when the grow would reach one of these page counts (and then it
	// always fires, independent of Rate) — "grow failures at chosen
	// page counts".
	GrowFailPages []uint32
	// Delay is the busy-wait charged by SiteUffdDelay and
	// SitePoolContention injections; defaults to 2µs.
	Delay time.Duration
	// Budget caps the total number of injections across all sites;
	// 0 means unlimited.
	Budget int64
}

// defaultDelay is the delay charged when Plan.Delay is zero.
const defaultDelay = 2 * time.Microsecond

// Injector evaluates a Plan at runtime. All methods are safe for
// concurrent use and nil-receiver safe (a nil injector never
// injects), so uninstrumented paths cost one branch.
type Injector struct {
	plan    Plan
	enabled [numSites]bool
	growSet map[uint32]bool

	evals [numSites]atomic.Int64

	// The injector's own counters: the budget reads them, and New
	// registers these same objects under the scope.
	injectCtrs [numSites]obs.Counter
	recoverCtr [numSites]obs.Counter
	injectAll  obs.Counter
	recoverAll obs.Counter
}

// New builds an injector for the plan, registering its counters
// under sc (inject_<site>, recover_<site>, injections, recoveries).
// A nil scope leaves the injector unobserved but functional.
func New(plan Plan, sc *obs.Scope) *Injector {
	if plan.Delay <= 0 {
		plan.Delay = defaultDelay
	}
	in := &Injector{plan: plan}
	for _, s := range plan.Sites {
		if s < numSites {
			in.enabled[s] = true
		}
	}
	if len(plan.GrowFailPages) > 0 {
		in.growSet = make(map[uint32]bool, len(plan.GrowFailPages))
		for _, p := range plan.GrowFailPages {
			in.growSet[p] = true
		}
		in.enabled[SiteGrow] = true
	}
	for s := Site(0); s < numSites; s++ {
		sc.RegisterCounter("inject_"+s.String(), &in.injectCtrs[s])
		sc.RegisterCounter("recover_"+s.String(), &in.recoverCtr[s])
	}
	sc.RegisterCounter("injections", &in.injectAll)
	sc.RegisterCounter("recoveries", &in.recoverAll)
	return in
}

// armed reports whether the site can fire at all.
func (in *Injector) armed(site Site) bool {
	return in != nil && site < numSites && in.enabled[site]
}

// splitmix64 is the SplitMix64 finalizer: a high-quality stateless
// mixer, so decision n for site s needs no per-site generator state
// beyond a counter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decide is the pure decision function: evaluation n of site s under
// seed fires iff a seeded hash lands below Rate.
func (in *Injector) decide(site Site, n int64) bool {
	h := splitmix64(uint64(in.plan.Seed)*0x9e3779b97f4a7c15 ^ uint64(site)<<56 ^ uint64(n))
	return float64(h>>11)/(1<<53) < in.plan.Rate
}

// Should evaluates the site once and reports whether to inject,
// counting the evaluation, the injection, and the site occurrence.
// The returned occurrence number is 1-based and identifies the
// decision for replay.
func (in *Injector) should(site Site) (int64, bool) {
	if !in.armed(site) {
		return 0, false
	}
	n := in.evals[site].Add(1)
	if !in.decide(site, n-1) {
		return n, false
	}
	if b := in.plan.Budget; b > 0 && in.injectAll.Load() >= b {
		return n, false
	}
	in.injectCtrs[site].Inc()
	in.injectAll.Inc()
	return n, true
}

// Should evaluates the site once and reports whether to inject.
func (in *Injector) Should(site Site) bool {
	_, fire := in.should(site)
	return fire
}

// Fail evaluates the site once and returns a transient *Error when
// it fires, nil otherwise.
func (in *Injector) Fail(site Site) error {
	n, fire := in.should(site)
	if !fire {
		return nil
	}
	return &Error{Site: site, N: n}
}

// DelayIf evaluates the site once and busy-waits Plan.Delay when it
// fires, reporting whether it did. Busy-waiting (not sleeping)
// matches the vmm cost model: the delayed handler occupies its CPU.
func (in *Injector) DelayIf(site Site) bool {
	_, fire := in.should(site)
	if fire {
		spin(in.plan.Delay)
	}
	return fire
}

// spin busy-waits for d.
func spin(d time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}

// GrowFail evaluates SiteGrow for a grow that would reach newPages,
// honouring GrowFailPages when set.
func (in *Injector) GrowFail(newPages uint32) bool {
	if !in.armed(SiteGrow) {
		return false
	}
	if in.growSet != nil {
		if !in.growSet[newPages] {
			return false
		}
		in.evals[SiteGrow].Add(1)
		in.injectCtrs[SiteGrow].Inc()
		in.injectAll.Inc()
		return true
	}
	return in.Should(SiteGrow)
}

// Recovered records that a degradation path (retry, fallback)
// absorbed an injected failure at the site.
func (in *Injector) Recovered(site Site) {
	if in == nil || site >= numSites {
		return
	}
	in.recoverCtr[site].Inc()
	in.recoverAll.Inc()
}

// Backoff busy-waits before retry attempt of an operation that failed
// with a transient fault (exponential from 500 ns, capped at 16 µs).
// It must not sleep: a sleep is a scheduler round trip, and the
// determinism contract above needs single-threaded chaos runs to
// replay without one — the same reason DelayIf spins.
func Backoff(attempt int) {
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	spin(time.Duration(1<<shift) * 250 * time.Nanosecond)
}

// Derive returns a copy of the plan with a per-shard seed, so each
// simulated process in a multi-process run gets an independent but
// replayable decision stream.
func (p Plan) Derive(shard int64) Plan {
	d := p
	d.Seed = int64(splitmix64(uint64(p.Seed) + uint64(shard)*0xd1b54a32d192ed03))
	return d
}
