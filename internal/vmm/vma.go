// Package vmm simulates the Linux virtual-memory subsystem pieces
// that the paper's bounds-checking strategies exercise: an address
// space with a VMA (virtual memory area) tree guarded by a single
// per-process lock (Linux's mmap_lock), mmap/mprotect/munmap with
// real tree manipulation under that lock, TLB-shootdown cost
// modelling, page-granular commit state, transparent-huge-page
// accounting, and a userfaultfd-style page-population path that
// works without taking the process lock.
//
// The point of the simulation is mechanical fidelity where the paper
// locates its effects: mprotect-based WebAssembly memory management
// serializes multithreaded workloads on the process-wide lock
// (paper §4.1.1, §4.2.1); the userfaultfd path does per-page atomic
// work and does not. Both code paths are real concurrent code here —
// goroutines genuinely block on the mmap lock and genuinely race on
// page CAS operations.
package vmm

import "fmt"

// vma is one node of the VMA tree: a half-open address interval
// [start, end) with a protection. Nodes form an AVL tree keyed by
// start address; adjacent nodes never overlap.
type vma struct {
	start, end  uint64
	prot        Prot
	mapping     *Mapping
	left, right *vma
	height      int
}

// vmaTree is an AVL interval tree of disjoint VMAs, mirroring the
// kernel's per-process maple tree / rbtree of vm_area_structs. All
// methods require the caller to hold the owning address space lock.
type vmaTree struct {
	root  *vma
	count int
}

func nodeHeight(n *vma) int {
	if n == nil {
		return 0
	}
	return n.height
}

func fix(n *vma) *vma {
	n.height = 1 + max(nodeHeight(n.left), nodeHeight(n.right))
	bf := nodeHeight(n.left) - nodeHeight(n.right)
	switch {
	case bf > 1:
		if nodeHeight(n.left.left) < nodeHeight(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if nodeHeight(n.right.right) < nodeHeight(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

func rotateRight(n *vma) *vma {
	l := n.left
	n.left = l.right
	l.right = n
	n.height = 1 + max(nodeHeight(n.left), nodeHeight(n.right))
	l.height = 1 + max(nodeHeight(l.left), nodeHeight(l.right))
	return l
}

func rotateLeft(n *vma) *vma {
	r := n.right
	n.right = r.left
	r.left = n
	n.height = 1 + max(nodeHeight(n.left), nodeHeight(n.right))
	r.height = 1 + max(nodeHeight(r.left), nodeHeight(r.right))
	return r
}

// insert adds a node; the interval must not overlap existing nodes.
func (t *vmaTree) insert(n *vma) error {
	if n.start >= n.end {
		return fmt.Errorf("vmm: empty VMA [%#x, %#x)", n.start, n.end)
	}
	if hit := t.find(n.start); hit != nil {
		return fmt.Errorf("vmm: VMA overlap at %#x", n.start)
	}
	var err error
	t.root, err = insertNode(t.root, n)
	if err == nil {
		t.count++
	}
	return err
}

func insertNode(root, n *vma) (*vma, error) {
	if root == nil {
		n.left, n.right = nil, nil
		n.height = 1
		return n, nil
	}
	switch {
	case n.end <= root.start:
		l, err := insertNode(root.left, n)
		if err != nil {
			return root, err
		}
		root.left = l
	case n.start >= root.end:
		r, err := insertNode(root.right, n)
		if err != nil {
			return root, err
		}
		root.right = r
	default:
		return root, fmt.Errorf("vmm: VMA [%#x, %#x) overlaps [%#x, %#x)",
			n.start, n.end, root.start, root.end)
	}
	return fix(root), nil
}

// find returns the VMA containing addr, or nil.
func (t *vmaTree) find(addr uint64) *vma {
	n := t.root
	for n != nil {
		switch {
		case addr < n.start:
			n = n.left
		case addr >= n.end:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// remove deletes the node with the given start address.
func (t *vmaTree) remove(start uint64) *vma {
	var removed *vma
	t.root, removed = removeNode(t.root, start)
	if removed != nil {
		t.count--
	}
	return removed
}

func removeNode(root *vma, start uint64) (*vma, *vma) {
	if root == nil {
		return nil, nil
	}
	var removed *vma
	switch {
	case start < root.start:
		root.left, removed = removeNode(root.left, start)
	case start > root.start:
		root.right, removed = removeNode(root.right, start)
	default:
		removed = root
		if root.left == nil {
			return root.right, removed
		}
		if root.right == nil {
			return root.left, removed
		}
		// Replace with the successor's interval, then delete the
		// successor node from the right subtree.
		succ := root.right
		for succ.left != nil {
			succ = succ.left
		}
		repl := &vma{
			start: succ.start, end: succ.end, prot: succ.prot, mapping: succ.mapping,
			left: root.left, height: root.height,
		}
		var detached *vma
		repl.right, detached = removeNode(root.right, succ.start)
		_ = detached
		return fix(repl), removed
	}
	return fix(root), removed
}

// walk visits VMAs in address order.
func (t *vmaTree) walk(f func(*vma) bool) {
	walkNode(t.root, f)
}

func walkNode(n *vma, f func(*vma) bool) bool {
	if n == nil {
		return true
	}
	if !walkNode(n.left, f) {
		return false
	}
	if !f(n) {
		return false
	}
	return walkNode(n.right, f)
}

// walkRange visits, in address order, the VMAs that overlap
// [lo, hi), descending only into subtrees that can hold one: the cost
// is O(log n + matches), independent of how many VMAs lie outside.
func (t *vmaTree) walkRange(lo, hi uint64, f func(*vma) bool) {
	walkRangeNode(t.root, lo, hi, f)
}

func walkRangeNode(n *vma, lo, hi uint64, f func(*vma) bool) bool {
	if n == nil {
		return true
	}
	if lo < n.start && !walkRangeNode(n.left, lo, hi, f) {
		return false
	}
	if n.end > lo && n.start < hi && !f(n) {
		return false
	}
	if hi > n.end {
		return walkRangeNode(n.right, lo, hi, f)
	}
	return true
}

// findGap returns the lowest address >= from where a hole of at
// least length bytes exists between VMAs (or after the last one).
func (t *vmaTree) findGap(from, length uint64) uint64 {
	cursor := from
	t.walk(func(n *vma) bool {
		if n.end <= cursor {
			return true
		}
		if n.start >= cursor+length {
			return false // gap before this VMA fits
		}
		cursor = n.end
		return true
	})
	return cursor
}

// splitAt splits the VMA containing addr so that a VMA boundary
// exists exactly at addr. This mirrors __split_vma in the kernel.
func (t *vmaTree) splitAt(addr uint64) error {
	n := t.find(addr)
	if n == nil || n.start == addr {
		return nil
	}
	right := &vma{start: addr, end: n.end, prot: n.prot, mapping: n.mapping}
	n.end = addr
	return t.insert(right)
}

// protRange applies prot to [start, end), splitting boundary VMAs
// and merging adjacent same-protection neighbours afterwards. It
// returns the number of VMA nodes touched (split/merged/updated),
// a proxy for the kernel work done under the lock.
func (t *vmaTree) protRange(start, end uint64, prot Prot) (int, error) {
	if err := t.splitAt(start); err != nil {
		return 0, err
	}
	if err := t.splitAt(end); err != nil {
		return 0, err
	}
	touched := 0
	t.walkRange(start, end, func(n *vma) bool {
		if n.prot != prot {
			n.prot = prot
			touched++
		}
		return true
	})
	touched += t.mergeAround(start, end)
	return touched, nil
}

// mergeAround coalesces adjacent VMAs with identical protection and
// mapping in the vicinity of [start, end), as vma_merge does.
func (t *vmaTree) mergeAround(start, end uint64) int {
	merged := 0
	for {
		var prev *vma
		var victim *vma
		t.walk(func(n *vma) bool {
			if prev != nil && prev.end == n.start && prev.prot == n.prot &&
				prev.mapping == n.mapping && n.start >= saturatingSub(start, 1) && prev.end <= end+1 {
				victim = n
				return false
			}
			prev = n
			return n.start <= end // stop walking far past the range
		})
		if victim == nil {
			return merged
		}
		left := t.find(victim.start - 1)
		t.remove(victim.start)
		left.end = victim.end
		merged++
	}
}

func saturatingSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// checkInvariants verifies ordering, disjointness and AVL balance;
// used by tests.
func (t *vmaTree) checkInvariants() error {
	var prev *vma
	var err error
	t.walk(func(n *vma) bool {
		if prev != nil && n.start < prev.end {
			err = fmt.Errorf("vmm: VMAs out of order or overlapping: [%#x,%#x) then [%#x,%#x)",
				prev.start, prev.end, n.start, n.end)
			return false
		}
		if n.start >= n.end {
			err = fmt.Errorf("vmm: empty VMA [%#x,%#x)", n.start, n.end)
			return false
		}
		prev = n
		return true
	})
	if err != nil {
		return err
	}
	if _, ok := checkBalance(t.root); !ok {
		return fmt.Errorf("vmm: AVL balance violated")
	}
	n := 0
	t.walk(func(*vma) bool { n++; return true })
	if n != t.count {
		return fmt.Errorf("vmm: node count %d != tracked count %d", n, t.count)
	}
	return nil
}

func checkBalance(n *vma) (int, bool) {
	if n == nil {
		return 0, true
	}
	lh, ok := checkBalance(n.left)
	if !ok {
		return 0, false
	}
	rh, ok := checkBalance(n.right)
	if !ok {
		return 0, false
	}
	if lh-rh > 1 || rh-lh > 1 {
		return 0, false
	}
	h := 1 + max(lh, rh)
	if h != n.height {
		return 0, false
	}
	return h, true
}
