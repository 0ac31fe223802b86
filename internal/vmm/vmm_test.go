package vmm

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func testAS() *AddressSpace {
	// Zero simulated costs so unit tests run fast; 4 KiB pages.
	return New(Config{})
}

func TestMmapBasic(t *testing.T) {
	as := testAS()
	m, err := as.Mmap(1<<20, 1<<16, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if m.reserve != 1<<20 || m.Backing() != 1<<16 {
		t.Errorf("sizes: reserve=%d backing=%d", m.reserve, m.Backing())
	}
	if len(m.Data()) != 1<<16 {
		t.Errorf("data length %d", len(m.Data()))
	}
	if err := as.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if got := as.Snapshot().VMACount; got != 2 {
		t.Errorf("VMA count %d, want 2 (backing + guard)", got)
	}
	if err := as.Munmap(m); err != nil {
		t.Fatal(err)
	}
	if got := as.Snapshot().VMACount; got != 0 {
		t.Errorf("VMA count after munmap %d, want 0", got)
	}
}

func TestMmapNonOverlapping(t *testing.T) {
	as := testAS()
	var maps []*Mapping
	for i := 0; i < 10; i++ {
		m, err := as.Mmap(1<<20, 1<<16, ProtNone)
		if err != nil {
			t.Fatal(err)
		}
		maps = append(maps, m)
	}
	seen := map[uint64]bool{}
	for _, m := range maps {
		if seen[m.addr] {
			t.Fatalf("duplicate address %#x", m.addr)
		}
		seen[m.addr] = true
	}
	if err := as.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Unmap every other mapping, then map again into the holes.
	for i := 0; i < 10; i += 2 {
		if err := as.Munmap(maps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if _, err := as.Mmap(1<<20, 1<<16, ProtNone); err != nil {
		t.Fatal(err)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMunmapTwice(t *testing.T) {
	as := testAS()
	m, err := as.Mmap(1<<16, 1<<16, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Munmap(m); err != nil {
		t.Fatal(err)
	}
	if err := as.Munmap(m); err != errUnmapped {
		t.Errorf("second munmap: got %v, want errUnmapped", err)
	}
}

func TestMprotectCommitsPages(t *testing.T) {
	as := testAS()
	m, err := as.Mmap(1<<20, 1<<20, ProtNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckAccess(0, 8, false); err == nil {
		t.Error("expected PROT_NONE page to be inaccessible")
	}
	if err := m.Mprotect(0, 8192, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckAccess(0, 8192, true); err != nil {
		t.Errorf("after mprotect: %v", err)
	}
	if err := m.CheckAccess(8192, 8, false); err == nil {
		t.Error("page beyond mprotected range should be inaccessible")
	}
	if got := m.CommittedBytes(); got != 8192 {
		t.Errorf("committed %d, want 8192", got)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMprotectSplitsAndMergesVMAs(t *testing.T) {
	as := testAS()
	m, err := as.Mmap(1<<20, 1<<20, ProtNone)
	if err != nil {
		t.Fatal(err)
	}
	// Protect a hole in the middle: expect splits.
	if err := m.Mprotect(16384, 4096, ProtRW); err != nil {
		t.Fatal(err)
	}
	before := as.Snapshot().VMACount
	if before < 3 {
		t.Errorf("VMA count %d after split, want >= 3", before)
	}
	// Restore: adjacent same-prot VMAs must merge back into the
	// single original PROT_NONE area (reserve == backing here).
	if err := m.Mprotect(16384, 4096, ProtNone); err != nil {
		t.Fatal(err)
	}
	after := as.Snapshot().VMACount
	if after != 1 {
		t.Errorf("VMA count %d after merge, want 1", after)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMprotectOutOfRange(t *testing.T) {
	as := testAS()
	m, err := as.Mmap(1<<20, 1<<16, ProtNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mprotect(0, 1<<17, ProtRW); err == nil {
		t.Error("mprotect beyond backing should fail")
	}
}

func TestFaultKinds(t *testing.T) {
	as := testAS()
	m, err := as.Mmap(1<<20, 1<<20, ProtNone)
	if err != nil {
		t.Fatal(err)
	}
	if kind := m.Fault(0, true); kind != FaultSegv {
		t.Errorf("fault on PROT_NONE: got %v, want FaultSegv", kind)
	}
	if err := m.RegisterUffd(); err != nil {
		t.Fatal(err)
	}
	if kind := m.Fault(0, true); kind != FaultUffd {
		t.Errorf("fault on uffd region: got %v, want FaultUffd", kind)
	}
	if err := m.UffdZeroPages(0, 4096); err != nil {
		t.Fatal(err)
	}
	if kind := m.Fault(0, true); kind != FaultResolved {
		t.Errorf("fault on populated page: got %v, want FaultResolved", kind)
	}
	// Beyond backing is always SIGSEGV.
	if kind := m.Fault(1<<21, false); kind != FaultSegv {
		t.Errorf("fault beyond backing: got %v, want FaultSegv", kind)
	}
	snap := as.Snapshot()
	if snap.UffdFaults != 1 || snap.SegvFaults != 2 {
		t.Errorf("fault counters: uffd=%d segv=%d", snap.UffdFaults, snap.SegvFaults)
	}
}

func TestUffdZeroWithoutRegistration(t *testing.T) {
	as := testAS()
	m, err := as.Mmap(1<<16, 1<<16, ProtNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UffdZeroPages(0, 4096); err != errNotUffd {
		t.Errorf("got %v, want errNotUffd", err)
	}
}

func TestTouchRequiresWritable(t *testing.T) {
	as := testAS()
	m, err := as.Mmap(1<<16, 1<<16, ProtNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Touch(0, 4096); err == nil {
		t.Error("touch of PROT_NONE should fail")
	}
	m2, err := as.Mmap(1<<16, 1<<16, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Touch(0, 8192); err != nil {
		t.Fatal(err)
	}
	if got := m2.CommittedBytes(); got != 8192 {
		t.Errorf("committed %d, want 8192", got)
	}
	if as.Snapshot().MinorFaults != 2 {
		t.Errorf("minor faults %d, want 2", as.Snapshot().MinorFaults)
	}
	// An unaligned range commits every page it overlaps: 8 bytes across
	// the page 4/5 boundary are two pages, not ceil(8/4096) = 1.
	if err := m2.Touch(5*4096-4, 8); err != nil {
		t.Fatal(err)
	}
	if err := m2.CheckAccess(5*4096-4, 8, true); err != nil {
		t.Errorf("straddling touch left part of its range uncommitted: %v", err)
	}
	if got := m2.CommittedBytes(); got != 4*4096 {
		t.Errorf("committed %d, want %d", got, 4*4096)
	}
	if err := m2.Touch(1<<16-4, 8); err == nil {
		t.Error("touch running past the backing should fail")
	}
}

func TestResidentAccountingNoTHP(t *testing.T) {
	as := testAS()
	m, err := as.Mmap(1<<20, 1<<20, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Touch(0, 3*4096); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentBytes(); got != 3*4096 {
		t.Errorf("resident %d, want %d", got, 3*4096)
	}
	if err := as.Munmap(m); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentBytes(); got != 0 {
		t.Errorf("resident after munmap %d, want 0", got)
	}
}

func TestTHPPromotion(t *testing.T) {
	as := New(Config{THPSize: 2 << 20}) // 2 MiB blocks, as on Armv8
	// Reserve 8 MiB (4 blocks), back 4 MiB.
	m, err := as.Mmap(8<<20, 4<<20, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	// One touched page promotes one whole 2 MiB block.
	if err := m.Touch(0, 4096); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentBytes(); got != 2<<20 {
		t.Errorf("resident %d, want %d (one THP block)", got, 2<<20)
	}
	// More pages in the same block add nothing.
	if err := m.Touch(4096, 64*4096); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentBytes(); got != 2<<20 {
		t.Errorf("resident %d, want unchanged %d", got, 2<<20)
	}
	// A page in the next block promotes another block.
	if err := m.Touch(2<<20, 4096); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentBytes(); got != 4<<20 {
		t.Errorf("resident %d, want %d", got, 4<<20)
	}
	if as.Snapshot().THPPromotions != 2 {
		t.Errorf("promotions %d, want 2", as.Snapshot().THPPromotions)
	}
	if err := as.Munmap(m); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentBytes(); got != 0 {
		t.Errorf("resident after munmap %d, want 0", got)
	}
}

func TestTHPLargeBlocksIncreaseResident(t *testing.T) {
	// The Fig. 6 effect: with x86-style 1 GiB THP blocks a small
	// working set reports far more resident memory than with 2 MiB
	// blocks, for the same accesses.
	resident := func(thp uint64) int64 {
		as := New(Config{THPSize: thp})
		m, err := as.Mmap(8<<30, 16<<20, ProtRW) // 8 GiB reservation
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Touch(0, 4<<20); err != nil { // 4 MiB working set
			t.Fatal(err)
		}
		return as.ResidentBytes()
	}
	x86 := resident(1 << 30)
	arm := resident(2 << 20)
	if x86 <= arm {
		t.Errorf("x86 resident %d should exceed arm resident %d", x86, arm)
	}
	if x86 != 1<<30 {
		t.Errorf("x86 resident %d, want one 1 GiB block", x86)
	}
	if arm != 4<<20 {
		t.Errorf("arm resident %d, want 4 MiB of 2 MiB blocks", arm)
	}
}

func TestUffdConcurrentPopulation(t *testing.T) {
	as := testAS()
	m, err := as.Mmap(16<<20, 16<<20, ProtNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterUffd(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				off := uint64(r.Intn(4096)) * 4096
				if err := m.UffdZeroPages(off, 4096); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// Every page committed exactly once: resident equals committed.
	if got, want := as.ResidentBytes(), int64(m.CommittedBytes()); got != want {
		t.Errorf("resident %d != committed %d", got, want)
	}
}

func TestConcurrentMmapMunmap(t *testing.T) {
	as := testAS()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m, err := as.Mmap(1<<20, 1<<16, ProtNone)
				if err != nil {
					t.Error(err)
					return
				}
				if err := m.Mprotect(0, 1<<16, ProtRW); err != nil {
					t.Error(err)
					return
				}
				if err := as.Munmap(m); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := as.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if got := as.Snapshot().VMACount; got != 0 {
		t.Errorf("VMA count %d after all munmaps, want 0", got)
	}
	if got := as.ResidentBytes(); got != 0 {
		t.Errorf("resident %d, want 0", got)
	}
}

func TestZeroOnReuse(t *testing.T) {
	as := testAS()
	m, err := as.Mmap(1<<16, 1<<16, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	// Data's contract: commit a page before writing it.
	if err := m.Touch(0, 1); err != nil {
		t.Fatal(err)
	}
	m.Data()[123] = 42
	if err := as.Munmap(m); err != nil {
		t.Fatal(err)
	}
	m2, err := as.Mmap(1<<16, 1<<16, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Data()[123] != 0 {
		t.Error("recycled mapping must be zero-filled")
	}
}

// TestVMATreeRandomOps drives the tree through random mprotect
// patterns and checks invariants via testing/quick.
func TestVMATreeRandomOps(t *testing.T) {
	f := func(ops []uint16) bool {
		as := testAS()
		m, err := as.Mmap(1<<22, 1<<22, ProtNone)
		if err != nil {
			return false
		}
		prots := []Prot{ProtNone, protRead, ProtRW}
		for i, op := range ops {
			page := uint64(op % 1024)
			length := uint64(op%7+1) * 4096
			if page*4096+length > 1<<22 {
				continue
			}
			if err := m.Mprotect(page*4096, length, prots[i%3]); err != nil {
				t.Logf("mprotect: %v", err)
				return false
			}
			if err := as.CheckInvariants(); err != nil {
				t.Logf("invariants: %v", err)
				return false
			}
		}
		return as.Munmap(m) == nil && as.CheckInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFindGapReusesHoles(t *testing.T) {
	as := testAS()
	a, _ := as.Mmap(1<<16, 1<<16, ProtNone)
	b, _ := as.Mmap(1<<16, 1<<16, ProtNone)
	c, _ := as.Mmap(1<<16, 1<<16, ProtNone)
	_ = a
	_ = c
	addr := b.addr
	if err := as.Munmap(b); err != nil {
		t.Fatal(err)
	}
	d, err := as.Mmap(1<<16, 1<<16, ProtNone)
	if err != nil {
		t.Fatal(err)
	}
	if d.addr != addr {
		t.Errorf("new mapping at %#x, want reuse of hole at %#x", d.addr, addr)
	}
}

// TestMunmapScrubsSparseCommits: teardown scrubs exactly the committed
// pages — wherever they lie in the backing and however mprotect has
// split the mapping's VMAs — while live neighbours on both sides keep
// their nodes and their contents.
func TestMunmapScrubsSparseCommits(t *testing.T) {
	as := testAS()
	ps := as.cfg.PageSize
	const pages = 64
	mk := func() *Mapping {
		m, err := as.Mmap(1<<20, pages*ps, ProtNone)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	left, mid, right := mk(), mk(), mk()
	for _, m := range []*Mapping{left, right} {
		if err := m.Mprotect(0, ps, ProtRW); err != nil {
			t.Fatal(err)
		}
		m.Data()[0] = 0x77
	}
	for _, p := range []uint64{0, 17, 18, pages - 1} {
		if err := mid.Mprotect(p*ps, ps, ProtRW); err != nil {
			t.Fatal(err)
		}
		mid.Data()[p*ps+ps-1] = 0xEE
	}
	data := mid.Data()
	before := as.Snapshot().VMACount
	if err := mid.Munmap(); err != nil {
		t.Fatal(err)
	}
	// rw, none, rw(17-18), none, rw, guard = 6 nodes.
	if got := before - as.Snapshot().VMACount; got != 6 {
		t.Errorf("munmap removed %d VMAs, want 6", got)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, b := range data {
		if b != 0 {
			t.Fatalf("recycled backing byte %d = %#x, want 0", i, b)
		}
	}
	if got := as.ResidentBytes(); got != int64(2*ps) {
		t.Errorf("resident %d, want the two neighbour pages (%d)", got, 2*ps)
	}
	for _, m := range []*Mapping{left, right} {
		if m.Data()[0] != 0x77 || m.CheckAccess(0, 1, true) != nil {
			t.Error("neighbour mapping disturbed by munmap")
		}
	}
}

// TestUffdDecommitScrubs: a decommitted page has MADV_DONTNEED
// semantics — its contents are gone, not merely unaccounted.
func TestUffdDecommitScrubs(t *testing.T) {
	as := testAS()
	ps := as.cfg.PageSize
	m, err := as.Mmap(1<<20, 8*ps, ProtNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterUffd(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []uint64{1, 3} {
		if err := m.UffdZeroPages(p*ps, ps); err != nil {
			t.Fatal(err)
		}
		m.Data()[p*ps+5] = 0xCC
	}
	// Decommit page 1 only: page 3 keeps its contents.
	if err := m.UffdDecommitPages(0, 2*ps); err != nil {
		t.Fatal(err)
	}
	if m.Data()[ps+5] != 0 {
		t.Error("decommitted page kept its contents")
	}
	if m.Data()[3*ps+5] != 0xCC {
		t.Error("decommit scrubbed a page outside its range")
	}
	if got := as.ResidentBytes(); got != int64(ps) {
		t.Errorf("resident %d, want %d", got, ps)
	}
}

// TestWalkRangeMatchesWalk checks the pruned range walk against a
// filter over the full in-order walk.
func TestWalkRangeMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tree vmaTree
	// Disjoint intervals with holes between some of them.
	cursor := uint64(0x1000)
	for i := 0; i < 200; i++ {
		cursor += uint64(rng.Intn(3)) * 0x1000
		end := cursor + uint64(rng.Intn(4)+1)*0x1000
		if err := tree.insert(&vma{start: cursor, end: end}); err != nil {
			t.Fatal(err)
		}
		cursor = end
	}
	for i := 0; i < 500; i++ {
		lo := uint64(rng.Intn(int(cursor+0x2000))) &^ 0xfff
		hi := lo + uint64(rng.Intn(40))*0x1000
		var want, got []uint64
		tree.walk(func(n *vma) bool {
			if n.end > lo && n.start < hi {
				want = append(want, n.start)
			}
			return true
		})
		tree.walkRange(lo, hi, func(n *vma) bool {
			got = append(got, n.start)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("[%#x,%#x): walkRange visited %d nodes, walk filter %d", lo, hi, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("[%#x,%#x): node %d is %#x, want %#x", lo, hi, j, got[j], want[j])
			}
		}
	}
}

// BenchmarkMmapMunmapSparse is the provisioning/teardown layer
// benchmark for a sparse isolate: a 64 MiB backing of which 2 MiB is
// committed. Both costs must follow the 2 MiB, not the 64.
func BenchmarkMmapMunmapSparse(b *testing.B) {
	const backing, committed = 64 << 20, 2 << 20
	for _, prot := range []Prot{ProtNone, ProtRW} {
		b.Run(prot.String(), func(b *testing.B) {
			as := testAS()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := as.Mmap(8<<30, backing, prot)
				if err != nil {
					b.Fatal(err)
				}
				if prot == ProtRW {
					err = m.Touch(0, committed)
				} else {
					err = m.Mprotect(0, committed, ProtRW)
				}
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Munmap(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestStatsSnapshotArithmeticCoversEveryField fails when a field is
// added to StatsSnapshot and not to Add or Sub: the struct is filled
// through reflection, so a field the methods do not name keeps its
// left operand's value and shows.
func TestStatsSnapshotArithmeticCoversEveryField(t *testing.T) {
	var late, early StatsSnapshot
	lv, ev := reflect.ValueOf(&late).Elem(), reflect.ValueOf(&early).Elem()
	for i := 0; i < lv.NumField(); i++ {
		lv.Field(i).SetInt(int64(1000 + 10*i))
		ev.Field(i).SetInt(int64(1 + i))
	}
	levels := map[string]bool{"ResidentBytes": true, "VMACount": true}
	sum, diff := reflect.ValueOf(late.Add(early)), reflect.ValueOf(late.Sub(early))
	for i := 0; i < lv.NumField(); i++ {
		name := lv.Type().Field(i).Name
		l, e := lv.Field(i).Int(), ev.Field(i).Int()
		if got := sum.Field(i).Int(); got != l+e {
			t.Errorf("Add: %s = %d, want %d", name, got, l+e)
		}
		want := l - e
		if levels[name] {
			want = l
		}
		if got := diff.Field(i).Int(); got != want {
			t.Errorf("Sub: %s = %d, want %d", name, got, want)
		}
	}
}
