package vmm

import (
	"testing"

	"leapsandbounds/internal/faultinject"
)

// withInjection returns a test address space whose injector fires a
// single site unconditionally.
func withInjection(site faultinject.Site) *AddressSpace {
	as := testAS()
	as.SetInjector(faultinject.New(faultinject.Plan{
		Seed: 7, Rate: 1, Sites: []faultinject.Site{site},
	}, nil))
	return as
}

// TestInjectedSyscallFailures is the table of injected transient
// syscall failures: each must surface as a typed transient error from
// the right site and leave the address space unchanged (no partial
// VMAs, no committed pages), so the caller's retry starts clean.
func TestInjectedSyscallFailures(t *testing.T) {
	const ps = 4096
	cases := []struct {
		name string
		site faultinject.Site
		op   func(t *testing.T, as *AddressSpace) error
	}{
		{"mmap", faultinject.SiteMmap, func(t *testing.T, as *AddressSpace) error {
			_, err := as.Mmap(1<<20, 1<<16, ProtRW)
			if err != nil {
				if got := as.Snapshot().VMACount; got != 0 {
					t.Errorf("VMA count %d after failed mmap, want 0", got)
				}
			}
			return err
		}},
		{"mprotect", faultinject.SiteMprotect, func(t *testing.T, as *AddressSpace) error {
			m := mustMap(t, as, ProtNone)
			err := m.Mprotect(0, ps, ProtRW)
			if err != nil {
				if k := m.Fault(0, false); k != FaultSegv {
					t.Errorf("page state changed by failed mprotect: fault kind %v", k)
				}
			}
			return err
		}},
		{"uffd_zero", faultinject.SiteUffdZero, func(t *testing.T, as *AddressSpace) error {
			m := mustMap(t, as, ProtNone)
			if err := m.RegisterUffd(); err != nil {
				t.Fatal(err)
			}
			err := m.UffdZeroPages(0, ps)
			if err != nil {
				if k := m.Fault(0, false); k != FaultUffd {
					t.Errorf("page committed by failed uffd zero: fault kind %v", k)
				}
			}
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			as := withInjection(c.site)
			err := c.op(t, as)
			if err == nil {
				t.Fatal("expected an injected failure")
			}
			site, ok := faultinject.IsTransient(err)
			if !ok || site != c.site {
				t.Fatalf("error %v: transient=%v site=%v, want site %v", err, ok, site, c.site)
			}
			// Clearing the injector restores normal behaviour.
			as.SetInjector(nil)
			if err := c.op(t, as); err != nil {
				t.Fatalf("op still failing without injector: %v", err)
			}
		})
	}
}

// TestInjectedFaultDrop: a dropped page-fault delivery is reported as
// FaultDropped (the accessing thread must re-fault), counted, and
// disappears when the injector is removed.
func TestInjectedFaultDrop(t *testing.T) {
	as := withInjection(faultinject.SiteFaultDrop)
	m := mustMap(t, as, ProtNone)
	if k := m.Fault(0, false); k != FaultDropped {
		t.Fatalf("fault kind %v, want FaultDropped", k)
	}
	if got := as.Snapshot().DroppedFaults; got != 1 {
		t.Errorf("dropped_faults %d, want 1", got)
	}
	as.SetInjector(nil)
	if k := m.Fault(0, false); k != FaultSegv {
		t.Errorf("fault kind %v without injector, want FaultSegv", k)
	}
}

func mustMap(t *testing.T, as *AddressSpace, prot Prot) *Mapping {
	t.Helper()
	// Bypass injection for the setup mapping.
	inj := as.Injector()
	as.SetInjector(nil)
	m, err := as.Mmap(1<<20, 1<<16, prot)
	as.SetInjector(inj)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
