package vmm

import (
	"bytes"
	"testing"

	"leapsandbounds/internal/obs"
)

// cowSource builds a 4-page source image with a distinct byte per
// page, so tests can tell which pages were duplicated.
func cowSource(t *testing.T, as *AddressSpace) *PageSource {
	t.Helper()
	ps := as.cfg.PageSize
	img := make([]byte, 4*ps)
	for p := uint64(0); p < 4; p++ {
		for i := uint64(0); i < ps; i++ {
			img[p*ps+i] = byte(p + 1)
		}
	}
	return NewPageSource(ps, img)
}

func TestCoWPopulateOnMprotectCommit(t *testing.T) {
	as := testAS()
	src := cowSource(t, as)
	ps := as.cfg.PageSize
	m, err := as.MmapCoWTraced(1<<20, 8*ps, ProtNone, src, obs.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	// Committing page 2 via the SIGSEGV/mprotect path must duplicate
	// exactly that page from the source.
	if err := m.Mprotect(2*ps, ps, ProtRW); err != nil {
		t.Fatal(err)
	}
	if got := m.Data()[2*ps]; got != 3 {
		t.Errorf("page 2 byte = %d, want 3 (source content)", got)
	}
	if got := m.Data()[ps]; got != 0 {
		t.Errorf("uncommitted page 1 byte = %d, want 0", got)
	}
	// Pages past the source image commit as zeros.
	if err := m.Mprotect(5*ps, ps, ProtRW); err != nil {
		t.Fatal(err)
	}
	if got := m.Data()[5*ps]; got != 0 {
		t.Errorf("page 5 (past source) byte = %d, want 0", got)
	}
	st := as.Snapshot()
	if st.CowForks != 1 {
		t.Errorf("CowForks = %d, want 1", st.CowForks)
	}
	if st.CowPagesCopied != 1 {
		t.Errorf("CowPagesCopied = %d, want 1 (page 5 is past the image)", st.CowPagesCopied)
	}
}

func TestCoWPopulateOnUffdAndTouch(t *testing.T) {
	as := testAS()
	src := cowSource(t, as)
	ps := as.cfg.PageSize

	// uffd path: install-before-publish population.
	mu, err := as.MmapCoWTraced(1<<20, 4*ps, ProtNone, src, obs.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mu.RegisterUffd(); err != nil {
		t.Fatal(err)
	}
	if err := mu.UffdZeroPages(0, 2*ps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mu.Data()[:2*ps], src.data[:2*ps]) {
		t.Error("uffd-populated pages differ from source")
	}
	// Decommit and re-populate with the source cleared: the arena-
	// recycling path must observe zeros again.
	clear(mu.Data()[:2*ps])
	if err := mu.UffdDecommitPages(0, 2*ps); err != nil {
		t.Fatal(err)
	}
	mu.SetSource(nil)
	if err := mu.UffdZeroPages(0, ps); err != nil {
		t.Fatal(err)
	}
	if mu.Data()[0] != 0 {
		t.Error("source-cleared arena populated non-zero content")
	}

	// first-touch path (eager RW strategies).
	mt, err := as.MmapCoWTraced(1<<20, 4*ps, ProtRW, src, obs.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Touch(0, 4*ps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mt.Data(), src.data) {
		t.Error("touch-populated pages differ from source")
	}
}

func TestCoWChildIndependentOfTemplateTeardown(t *testing.T) {
	as := testAS()
	ps := as.cfg.PageSize

	// "Template": an ordinary mapping whose contents get frozen.
	tmpl, err := as.Mmap(1<<20, 4*ps, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := tmpl.Touch(0, 4*ps); err != nil {
		t.Fatal(err)
	}
	for i := range tmpl.Data() {
		tmpl.Data()[i] = 0xAB
	}
	src := NewPageSource(ps, tmpl.Data())

	fork, err := as.MmapCoWTraced(1<<20, 4*ps, ProtNone, src, obs.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	// Tear the template down BEFORE the fork commits anything: the
	// frozen source must keep the fork alive (teardown ordering).
	if err := tmpl.Munmap(); err != nil {
		t.Fatal(err)
	}
	if err := fork.Mprotect(0, 4*ps, ProtRW); err != nil {
		t.Fatal(err)
	}
	for i := range fork.Data() {
		if fork.Data()[i] != 0xAB {
			t.Fatalf("byte %d = %#x after template teardown, want 0xAB", i, fork.Data()[i])
		}
	}
	// And writes to the fork never alias the (recycled) template
	// backing or the source image.
	fork.Data()[0] = 0x11
	if src.data[0] != 0xAB {
		t.Error("fork write leaked into the frozen source image")
	}
	if err := as.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCoWOverlappingReprotectSplitsAndMerges(t *testing.T) {
	as := testAS()
	src := cowSource(t, as)
	ps := as.cfg.PageSize
	m, err := as.MmapCoWTraced(1<<20, 4*ps, ProtNone, src, obs.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping re-protects exercise splitAt/protRange/mergeAround
	// on a forked mapping: commit [0,2), then [1,3), then the whole
	// range — each call overlaps the previous one's VMA splits.
	steps := []struct{ off, len uint64 }{
		{0, 2 * ps},
		{ps, 2 * ps},
		{0, 4 * ps},
	}
	for _, s := range steps {
		if err := m.Mprotect(s.off, s.len, ProtRW); err != nil {
			t.Fatal(err)
		}
		if err := as.CheckInvariants(); err != nil {
			t.Fatalf("invariants after mprotect [%d,%d): %v", s.off, s.off+s.len, err)
		}
	}
	if !bytes.Equal(m.Data(), src.data) {
		t.Error("overlapping re-protects corrupted source population")
	}
	// Every source page was copied exactly once despite the overlaps
	// (the second commit of an already-committed page is a no-op).
	if got := as.Snapshot().CowPagesCopied; got != 4 {
		t.Errorf("CowPagesCopied = %d, want 4", got)
	}
	// Fully RW again: the splits must have merged back to backing +
	// guard.
	if got := as.Snapshot().VMACount; got != 2 {
		t.Errorf("VMA count after full re-protect %d, want 2", got)
	}
}

func TestCoWUnmapChildWhileTemplateLives(t *testing.T) {
	as := testAS()
	ps := as.cfg.PageSize
	tmpl, err := as.Mmap(1<<20, 4*ps, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := tmpl.Touch(0, 4*ps); err != nil {
		t.Fatal(err)
	}
	tmpl.Data()[0] = 0x5A
	src := NewPageSource(ps, tmpl.Data())

	// Several forks; unmap them in mixed order with partial commits,
	// template still alive throughout.
	var forks []*Mapping
	for i := 0; i < 3; i++ {
		f, err := as.MmapCoWTraced(1<<20, 4*ps, ProtNone, src, obs.SpanRef{})
		if err != nil {
			t.Fatal(err)
		}
		// Split the fork's VMAs so unmap has to collect several nodes.
		if err := f.Mprotect(uint64(i)*ps, ps, ProtRW); err != nil {
			t.Fatal(err)
		}
		forks = append(forks, f)
	}
	for _, i := range []int{1, 0, 2} {
		if err := forks[i].Munmap(); err != nil {
			t.Fatal(err)
		}
		if err := as.CheckInvariants(); err != nil {
			t.Fatalf("invariants after unmapping fork %d: %v", i, err)
		}
	}
	// The template is untouched by child teardown.
	if tmpl.dead.Load() || tmpl.Data()[0] != 0x5A {
		t.Error("template affected by fork unmap")
	}
	if got := as.Snapshot().VMACount; got != 2 {
		t.Errorf("VMA count with only the template left = %d, want 2", got)
	}
	// A recycled backing slice from an unmapped fork must come back
	// zeroed even though the fork had source content in it.
	f, err := as.Mmap(1<<20, 4*ps, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Touch(0, 4*ps); err != nil {
		t.Fatal(err)
	}
	for i, b := range f.Data() {
		if b != 0 {
			t.Fatalf("recycled backing byte %d = %#x, want 0", i, b)
		}
	}
}

func TestPageSourceTailPadding(t *testing.T) {
	as := testAS()
	ps := as.cfg.PageSize
	// A source whose length is not page-aligned pads the tail page
	// with zeros.
	src := NewPageSource(ps, bytes.Repeat([]byte{7}, int(ps+3)))
	if src.Len() != 2*ps {
		t.Fatalf("source length %d, want %d", src.Len(), 2*ps)
	}
	if src.data[ps+3] != 0 || src.data[ps+2] != 7 {
		t.Error("tail page not zero-padded at the right boundary")
	}
	m, err := as.MmapCoWTraced(1<<20, 2*ps, ProtRW, src, obs.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Touch(0, 2*ps); err != nil {
		t.Fatal(err)
	}
	if m.Data()[ps+2] != 7 || m.Data()[ps+3] != 0 {
		t.Error("tail page content wrong after touch")
	}
}
