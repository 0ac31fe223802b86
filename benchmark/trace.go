package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark's own code (nothing inside the program is instrumented).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since process start
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index within the op, -1 for the op's root
	Op     int64  `json:"op"`
}

var processStart = time.Now()

func sinceStart() int64 { return int64(time.Since(processStart)) }

// keptSpanLimit bounds the trace file: hostcall runs record millions of
// spans, all of which feed the self-time totals but only the first ops'
// worth are kept verbatim.
const keptSpanLimit = 20000

// recorder collects the spans of one client goroutine. A nil recorder
// records nothing, so untraced runs share the same op code.
type recorder struct {
	cur   []span
	stack []int
	op    int64
	kept  []span
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.cur = append(r.cur, span{Name: name, Parent: parent, Op: r.op})
	i := len(r.cur) - 1
	r.stack = append(r.stack, i)
	r.cur[i].Start = sinceStart()
	return i
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.cur[i].End = sinceStart()
	r.stack = r.stack[:len(r.stack)-1]
}

// opTotals is what one traced op contributes to the layer numbers.
type opTotals struct {
	self  map[string]float64 // self time per span name, host-normalised ns
	total map[string]float64 // whole-span time per name, host-normalised ns
	count map[string]int64
}

// finishOp closes the current op: it returns the per-name totals,
// multiplied by the host factor f, and keeps the raw spans while the
// trace file has room.
func (r *recorder) finishOp(f float64) opTotals {
	t := opTotals{self: map[string]float64{}, total: map[string]float64{}, count: map[string]int64{}}
	for i, s := range selfTimes(r.cur) {
		name := r.cur[i].Name
		t.self[name] += f * float64(s)
		t.total[name] += f * float64(r.cur[i].End-r.cur[i].Start)
		t.count[name]++
	}
	if len(r.kept)+len(r.cur) <= keptSpanLimit {
		r.kept = append(r.kept, r.cur...)
	}
	r.cur = r.cur[:0]
	r.stack = r.stack[:0]
	r.op++
	return t
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (children may overlap each
// other or stick out of the parent; the union is clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

func writeTrace(path string, r *recorder) error {
	data, err := json.Marshal(r.kept)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
