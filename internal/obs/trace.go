package obs

// Trace export, two readers of two records. The timeline: the causal
// span tree reconstructed from a drained snapshot's events — whatever
// prefix of the run fit in the ring — rendered as Chrome trace-event
// JSON (loadable in Perfetto / chrome://tracing). The sums: a
// critical-path attribution report that aggregates per-strategy time
// into the phase buckets the paper's analysis decomposes a run into,
// computed from the span-time counters and therefore exact for any
// run length.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// spanNode is one reconstructed span.
type spanNode struct {
	id       int64
	kind     SpanKind
	scope    string
	parent   int64
	start    int64
	end      int64
	hasStart bool
	hasEnd   bool
	children []*spanNode
}

func (n *spanNode) complete() bool { return n.hasStart && n.hasEnd && n.end >= n.start }

// buildSpanTree reconstructs spans from a snapshot's events. Spans
// missing either endpoint (begin dropped by the ring, or still open
// at the drain) are counted as incomplete and excluded; children
// whose parent is missing or incomplete are promoted to roots, so
// partial traces still render.
func buildSpanTree(events []EventRecord) (roots []*spanNode, incomplete int) {
	nodes := make(map[int64]*spanNode)
	get := func(id int64) *spanNode {
		n, ok := nodes[id]
		if !ok {
			n = &spanNode{id: id}
			nodes[id] = n
		}
		return n
	}
	for _, ev := range events {
		switch ev.Kind {
		case SpanBegin:
			n := get(SpanEventID(ev.A))
			n.kind = SpanEventKind(ev.A)
			n.scope = ev.Scope
			n.parent = ev.B
			n.start = ev.TimeNs
			n.hasStart = true
		case SpanEnd:
			n := get(SpanEventID(ev.A))
			if !n.hasStart {
				n.kind = SpanEventKind(ev.A)
				n.scope = ev.Scope
			}
			n.end = ev.TimeNs
			n.hasEnd = true
		}
	}
	for _, n := range nodes {
		if !n.complete() {
			incomplete++
			continue
		}
		if p, ok := nodes[n.parent]; ok && n.parent != 0 && p.complete() {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	byStart := func(s []*spanNode) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].start != s[j].start {
				return s[i].start < s[j].start
			}
			return s[i].id < s[j].id
		})
	}
	byStart(roots)
	for _, n := range nodes {
		byStart(n.children)
	}
	return roots, incomplete
}

// chromeEvent is one trace-event record in Chrome's JSON format.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Pid  int64             `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace renders the snapshot's spans as Chrome trace-event
// JSON (duration events), loadable in Perfetto. Each root span and
// its subtree become one track (tid = root span ID), so concurrent
// workers render as parallel lanes. Child intervals are clamped into
// their parent, guaranteeing balanced, properly nested B/E pairs even
// when clocks of backdated spans straddle their parent's edges. The
// snapshot is not modified; call with a draining Snapshot(true).
func WriteChromeTrace(w io.Writer, snap *Snapshot) error {
	roots, incomplete := buildSpanTree(snap.Events)
	out := chromeTrace{
		TraceEvents:     []chromeEvent{},
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"incomplete_spans": incomplete,
			"dropped_events":   snap.DroppedEvents,
		},
	}
	var emit func(n *spanNode, tid, lo, hi int64)
	emit = func(n *spanNode, tid, lo, hi int64) {
		start, end := n.start, n.end
		if start < lo {
			start = lo
		}
		if end > hi {
			end = hi
		}
		if end < start {
			end = start
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: n.kind.String(), Cat: "span", Ph: "B",
			Ts: float64(start) / 1e3, Pid: 1, Tid: tid,
			Args: map[string]string{"scope": n.scope},
		})
		for _, c := range n.children {
			emit(c, tid, start, end)
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: n.kind.String(), Cat: "span", Ph: "E",
			Ts: float64(end) / 1e3, Pid: 1, Tid: tid,
		})
	}
	for _, r := range roots {
		emit(r, r.id, r.start, r.end)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Attribution bucket names, in report order. Time buckets hold
// exclusive span nanoseconds; bounds_check is special-cased (see
// AttributionRow.BoundsCheckOps).
var attributionBuckets = []string{
	"exec", "hostcall", "fault_handle", "vma_lock_wait", "page_populate", "other",
}

// bucketOf maps a span kind to its attribution bucket.
func bucketOf(k SpanKind) string {
	switch k {
	case SpanInvoke:
		return "exec"
	case SpanHostcall:
		// Exclusive time only: faults taken while the host checks a
		// guest-memory range span-nest under the hostcall and keep
		// their own buckets, so "hostcall" is pure boundary cost.
		return "hostcall"
	case SpanFault:
		return "fault_handle"
	case SpanVMALockWait:
		return "vma_lock_wait"
	case SpanKernelMmap, SpanKernelMunmap, SpanKernelMprotect,
		SpanUffdCopy, SpanUffdDecommit:
		return "page_populate"
	default:
		return "other"
	}
}

// AttributionRow aggregates one strategy's time.
type AttributionRow struct {
	// Strategy is parsed from the run scope label ("(none)" for spans
	// outside a labeled run).
	Strategy string `json:"strategy"`
	// NsByBucket is exclusive time (span duration minus child span
	// durations) summed per bucket.
	NsByBucket map[string]int64 `json:"ns_by_bucket"`
	// TotalNs sums the buckets.
	TotalNs int64 `json:"total_ns"`
	// OverlapNs is thread time beyond wall time. A kind whose spans'
	// children ran concurrently — the run span over its T workers'
	// iterations — has less inclusive time than its children together;
	// such a kind puts nothing in its bucket and its deficit goes
	// here, so TotalNs − OverlapNs is the inclusive time of the
	// strategy's parentless spans, exactly.
	OverlapNs int64 `json:"overlap_ns"`
	// BoundsCheckOps is the cycle-model count of executed software
	// bounds checks (engine/cycles/checktrap + checkclamp counters).
	// Inlined per-access checks are nanoseconds each and execute
	// inside the invoke span, so their wall time is part of exec and
	// is not separately span-measurable; the op count makes the
	// software-check cost visible next to the wall-time buckets.
	BoundsCheckOps int64 `json:"bounds_check_ops"`
}

// Share returns bucket ns as a fraction of the row total (0 when the
// row is empty).
func (r AttributionRow) Share(bucket string) float64 {
	if r.TotalNs == 0 {
		return 0
	}
	return float64(r.NsByBucket[bucket]) / float64(r.TotalNs)
}

// AttributionReport is the per-strategy critical-path decomposition.
type AttributionReport struct {
	Rows []AttributionRow `json:"rows"`
}

// Row returns the row for a strategy (zero row when absent).
func (rep AttributionReport) Row(strategy string) AttributionRow {
	for _, r := range rep.Rows {
		if r.Strategy == strategy {
			return r
		}
	}
	return AttributionRow{Strategy: strategy, NsByBucket: map[string]int64{}}
}

// scopeStrategy extracts the strategy label from a scope path of the
// form "run[engine=E workload=W strategy=S threads=N]/...".
func scopeStrategy(scope string) string {
	i := strings.Index(scope, "strategy=")
	if i < 0 {
		return "(none)"
	}
	rest := scope[i+len("strategy="):]
	if j := strings.IndexAny(rest, " ]"); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// spanKindNamed inverts SpanKind.String, for reading span-time
// counters back out of a snapshot.
func spanKindNamed(name string) SpanKind {
	for k, n := range spanKindNames {
		if n == name {
			return SpanKind(k)
		}
	}
	return 0
}

// Attribute computes the per-strategy attribution report from a
// snapshot's span-time counters: every span kind contributes its
// exclusive time — inclusive ns minus the ns of the spans parented
// under that kind — to its bucket, under the strategy parsed from the
// scope label. The counters cover every span that ended, so the
// report does not depend on what the trace ring kept. A span still
// open at the snapshot has added nothing yet; its ended children
// have, under its kind.
func Attribute(snap *Snapshot) AttributionReport {
	// One accumulator per strategy: the row being built and the
	// exclusive ns of each span kind, which only become bucket time
	// once every counter has been seen.
	type acc struct {
		row       AttributionRow
		exclusive [numSpanKinds]int64
	}
	accs := make(map[string]*acc)
	of := func(scope string) *acc {
		strategy := scopeStrategy(scope)
		a, ok := accs[strategy]
		if !ok {
			a = &acc{row: AttributionRow{Strategy: strategy, NsByBucket: make(map[string]int64)}}
			accs[strategy] = a
		}
		return a
	}
	for name, v := range snap.Counters {
		if scope, kind, ok := strings.Cut(name, spanNsInfix); ok {
			of(scope).exclusive[spanKindNamed(kind)] += v
		} else if scope, kind, ok := strings.Cut(name, spanChildNsInfix); ok {
			of(scope).exclusive[spanKindNamed(kind)] -= v
		} else if strings.HasSuffix(name, "/cycles/checktrap") || strings.HasSuffix(name, "/cycles/checkclamp") {
			// Software bounds checks execute inline; surface their
			// cycle-model op counts from the engine counters.
			of(name).row.BoundsCheckOps += v
		}
	}
	var rep AttributionReport
	for _, strategy := range sortedKeys(accs) {
		a := accs[strategy]
		for k, ns := range a.exclusive {
			if ns < 0 {
				a.row.OverlapNs -= ns
				continue
			}
			a.row.NsByBucket[bucketOf(SpanKind(k))] += ns
			a.row.TotalNs += ns
		}
		rep.Rows = append(rep.Rows, a.row)
	}
	return rep
}

// WriteAttribution renders the report as a human-readable table:
// per-strategy exclusive nanoseconds and shares per bucket, plus the
// concurrency overlap and the software-check op count.
func WriteAttribution(w io.Writer, rep AttributionReport) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprint(tw, "STRATEGY")
	for _, b := range attributionBuckets {
		fmt.Fprintf(tw, "\t%s", strings.ToUpper(b))
	}
	fmt.Fprint(tw, "\tOVERLAP\tCHECK OPS\n")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%s", r.Strategy)
		for _, b := range attributionBuckets {
			fmt.Fprintf(tw, "\t%d (%.1f%%)", r.NsByBucket[b], r.Share(b)*100)
		}
		fmt.Fprintf(tw, "\t%d\t%d\n", r.OverlapNs, r.BoundsCheckOps)
	}
	return tw.Flush()
}
