//go:build !linux || !(amd64 || arm64)

package prof

// Stub counter layer for platforms without perf_event_open support
// wired up: everything degrades exactly like an unsupported host
// (every read has OK == false), mirroring internal/sysmon.

// Group is the degraded counter group.
type Group struct{}

// OpenGroup returns a degraded group.
func OpenGroup() *Group { return &Group{} }

// Read returns a degraded sample.
func (g *Group) Read() CounterSample { return CounterSample{} }

// Close is a no-op.
func (g *Group) Close() {}

// ReadRusage returns a degraded sample.
func ReadRusage() RusageSample { return RusageSample{} }
