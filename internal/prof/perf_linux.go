//go:build linux && (amd64 || arm64)

package prof

import (
	"sync"
	"syscall"
	"unsafe"
)

// perf_event_attr constants (linux/perf_event.h).
const (
	perfTypeHardware = 0
	perfTypeSoftware = 1
	perfTypeHWCache  = 3

	perfCountHWCPUCycles    = 0
	perfCountHWInstructions = 1
	perfCountHWBranchMisses = 5

	perfCountSWPageFaults = 2

	// dTLB | (read << 8) | (miss << 16)
	perfCountHWCacheDTLBReadMiss = 3 | (0 << 8) | (1 << 16)

	perfAttrFlagDisabled      = 1 << 0 // leader starts disabled
	perfAttrFlagExcludeKernel = 1 << 5
	perfAttrFlagExcludeHV     = 1 << 6

	perfIOCEnable    = 0x2400
	perfIOCFlagGroup = 1
)

// perfEventAttr mirrors struct perf_event_attr up to
// PERF_ATTR_SIZE_VER3 (112 bytes); the kernel accepts any published
// size and zero-fills the rest.
type perfEventAttr struct {
	Type             uint32
	Size             uint32
	Config           uint64
	Sample           uint64 // sample_period / sample_freq union
	SampleType       uint64
	ReadFormat       uint64
	Bits             uint64
	Wakeup           uint32 // wakeup_events / wakeup_watermark
	BpType           uint32
	Ext1             uint64 // bp_addr / config1
	Ext2             uint64 // bp_len / config2
	BranchSampleType uint64
	SampleRegsUser   uint64
	SampleStackUser  uint32
	ClockID          int32
	SampleRegsIntr   uint64
	AuxWatermark     uint32
	SampleMaxStack   uint16
	_                uint16
}

func perfEventOpen(attr *perfEventAttr, pid, cpu, groupFD int, flags uintptr) (int, error) {
	attr.Size = uint32(unsafe.Sizeof(*attr))
	fd, _, errno := syscall.Syscall6(sysPerfEventOpen,
		uintptr(unsafe.Pointer(attr)), uintptr(pid), uintptr(cpu),
		uintptr(groupFD), flags, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}

// Group is a perf_event_open counter group pinned to the calling
// thread: instructions, cycles, branch misses, dTLB load misses and
// page faults, scheduled on and off the PMU together. When the
// leader cannot be opened the whole group degrades (OK false,
// zero reads); individual follower failures degrade only
// that counter to zero.
type Group struct {
	mu   sync.Mutex
	fds  [5]int // cycles (leader), instructions, branch-miss, dtlb-miss, page-faults
	open bool
}

func attrFor(typ uint32, config uint64, leader bool) perfEventAttr {
	a := perfEventAttr{
		Type:   typ,
		Config: config,
		Bits:   perfAttrFlagExcludeKernel | perfAttrFlagExcludeHV,
	}
	if leader {
		a.Bits |= perfAttrFlagDisabled
	}
	return a
}

// OpenGroup opens the counter group on the calling thread and
// enables it. Never fails: on any error the group is degraded.
func OpenGroup() *Group {
	g := &Group{fds: [5]int{-1, -1, -1, -1, -1}}
	leaderAttr := attrFor(perfTypeHardware, perfCountHWCPUCycles, true)
	leader, err := perfEventOpen(&leaderAttr, 0, -1, -1, 0)
	if err != nil {
		return g
	}
	g.fds[0] = leader
	followers := []perfEventAttr{
		attrFor(perfTypeHardware, perfCountHWInstructions, false),
		attrFor(perfTypeHardware, perfCountHWBranchMisses, false),
		attrFor(perfTypeHWCache, perfCountHWCacheDTLBReadMiss, false),
		attrFor(perfTypeSoftware, perfCountSWPageFaults, false),
	}
	for i := range followers {
		fd, err := perfEventOpen(&followers[i], 0, -1, leader, 0)
		if err != nil {
			fd = -1
		}
		g.fds[i+1] = fd
	}
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, uintptr(leader),
		perfIOCEnable, perfIOCFlagGroup); errno != 0 {
		g.closeLocked()
		return g
	}
	g.open = true
	return g
}

func readCounter(fd int) uint64 {
	if fd < 0 {
		return 0
	}
	var buf [8]byte
	n, err := syscall.Read(fd, buf[:])
	if err != nil || n != 8 {
		return 0
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(buf[i]) << (8 * i)
	}
	return v
}

// Read returns the group's current counts (zeros, OK=false when
// degraded).
func (g *Group) Read() CounterSample {
	if g == nil {
		return CounterSample{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.open {
		return CounterSample{}
	}
	return CounterSample{
		Cycles:         readCounter(g.fds[0]),
		Instructions:   readCounter(g.fds[1]),
		BranchMisses:   readCounter(g.fds[2]),
		DTLBLoadMisses: readCounter(g.fds[3]),
		PageFaults:     readCounter(g.fds[4]),
		OK:             true,
	}
}

func (g *Group) closeLocked() {
	for i, fd := range g.fds {
		if fd >= 0 {
			_ = syscall.Close(fd)
			g.fds[i] = -1
		}
	}
	g.open = false
}

// Close releases the group's descriptors. Safe on a degraded group.
func (g *Group) Close() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closeLocked()
}

// ReadRusage samples getrusage(RUSAGE_SELF).
func ReadRusage() RusageSample {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return RusageSample{}
	}
	tvNs := func(tv syscall.Timeval) int64 { return tv.Sec*1e9 + tv.Usec*1e3 }
	return RusageSample{
		UserNs:           tvNs(ru.Utime),
		SystemNs:         tvNs(ru.Stime),
		MaxRSSKB:         ru.Maxrss,
		MinorFaults:      ru.Minflt,
		MajorFaults:      ru.Majflt,
		VoluntaryCtxSw:   ru.Nvcsw,
		InvoluntaryCtxSw: ru.Nivcsw,
		OK:               true,
	}
}
