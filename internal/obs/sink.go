package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Sink renders a snapshot to some destination. Implementations:
// JSONSink (the machine-readable document), SummarySink (the digest a
// person reads).
type Sink interface {
	Write(*Snapshot) error
}

// JSONSink writes the snapshot as one indented JSON document.
type JSONSink struct{ W io.Writer }

// Write implements Sink.
func (s JSONSink) Write(snap *Snapshot) error {
	enc := json.NewEncoder(s.W)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// SummarySink writes a short human-readable digest: every metric in
// lexical order, histogram means, and how much of the span timeline
// the ring kept.
type SummarySink struct{ W io.Writer }

// Write implements Sink.
func (s SummarySink) Write(snap *Snapshot) error {
	for _, name := range sortedKeys(snap.Counters) {
		if v := snap.Counters[name]; v != 0 {
			if _, err := fmt.Fprintf(s.W, "%-52s %d\n", name, v); err != nil {
				return err
			}
		}
	}
	for _, name := range sortedKeys(snap.Gauges) {
		if _, err := fmt.Fprintf(s.W, "%-52s %d (gauge)\n", name, snap.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		if h.Count == 0 {
			continue
		}
		mean := time.Duration(h.Sum / h.Count)
		if _, err := fmt.Fprintf(s.W, "%-52s n=%d mean=%v p50=%v p95=%v p99=%v\n",
			name, h.Count, mean,
			time.Duration(h.P50), time.Duration(h.P95), time.Duration(h.P99)); err != nil {
			return err
		}
	}
	if len(snap.Events) > 0 || snap.DroppedEvents > 0 {
		if _, err := fmt.Fprintf(s.W, "spans: %d recorded, %d dropped (events; two per span)\n", len(snap.Events), snap.DroppedEvents); err != nil {
			return err
		}
	}
	return nil
}
