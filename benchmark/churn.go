package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	leaps "leapsandbounds"
)

// clients is the number of load-generating goroutines in churn's phase
// B: never more than the host has processors.
func clients() int { return min(2, runtime.NumCPU()) }

// blockOps is how many ops each client runs on a cell before the round
// moves on; both clients hammer the same cell at the same time, so they
// meet on that strategy's mmap lock.
const blockOps = 4

// contended is churn's phase B: closed loop, clients() workers, each
// starting its next op when its previous one completes. It adds up
// across epochs.
type contended struct {
	win                window
	lockWaitNs, busyNs map[leaps.Strategy]int64
	gc                 collector
}

func newContended() *contended {
	return &contended{lockWaitNs: map[leaps.Strategy]int64{}, busyNs: map[leaps.Strategy]int64{}}
}

// measure runs one round of blocks, then as many more as fit in the box.
func (ct *contended) measure(cells []*cell, rng *rand.Rand, box time.Duration, tl *tally) {
	n := clients()
	tallies := make([]tally, n)
	busy := make([]int64, n)
	defer ct.gc.park()()
	start := time.Now()
	for first, last := true, time.Duration(0); first || time.Since(start)+last <= box; first = false {
		t0 := time.Now()
		for _, ci := range rng.Perm(len(cells)) {
			c := cells[ci]
			f := host.factor()
			blockStart := time.Now()
			before := c.proc.VMStats()
			var wg sync.WaitGroup
			for k := 0; k < n; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					busy[k] = 0
					for i := 0; i < blockOps; i++ {
						ph, err := c.op.run(nil)
						tallies[k].attempted++
						if err != nil {
							tallies[k].fail(c, err)
						}
						busy[k] += int64(ph.total)
					}
				}()
			}
			wg.Wait()
			ct.lockWaitNs[c.strategy] += kernelSub(c.proc.VMStats(), before).lockWaitNs
			for _, b := range busy {
				ct.busyNs[c.strategy] += b
			}
			ct.win.ops += n * blockOps
			ct.win.wallMs += f*ms(time.Since(blockStart)) + ct.gc.between()
		}
		last = time.Since(t0)
	}
	for _, t := range tallies {
		tl.attempted += t.attempted
		tl.failed += t.failed
		if tl.firstErr == "" {
			tl.firstErr = t.firstErr
		}
	}
}
