package eden

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"eden/internal/store"
	"eden/internal/telemetry"
)

// echoType is a minimal type for exercising the invocation path.
func echoType() *TypeManager {
	tm := NewType("echo")
	tm.Op(Operation{
		Name:    "ping",
		Access:  AccessRead,
		Handler: func(c *Call) { c.Return(c.Data) },
	})
	return tm
}

// TestTracePropagation checks that one remote invocation produces a
// correlated pair of spans: an "invoke" span on the calling node and a
// "serve" span on the hosting node, sharing the same nonzero trace ID
// carried across the wire in the envelope's Trace field.
func TestTracePropagation(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.RegisterType(echoType()); err != nil {
		t.Fatal(err)
	}
	host, err := sys.AddNode("host")
	if err != nil {
		t.Fatal(err)
	}
	caller, err := sys.AddNode("caller")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := host.CreateObject("echo")
	if err != nil {
		t.Fatal(err)
	}
	opts := &InvokeOptions{Timeout: 5 * time.Second}
	if _, err := caller.Invoke(cap, "ping", []byte("x"), nil, opts); err != nil {
		t.Fatal(err)
	}

	var invoke *SpanRecord
	for _, sp := range caller.Telemetry().Spans() {
		if sp.Name == "invoke" {
			sp := sp
			invoke = &sp
		}
	}
	if invoke == nil {
		t.Fatal("caller recorded no invoke span")
	}
	if invoke.Trace == 0 {
		t.Fatal("invoke span has zero trace ID")
	}
	if invoke.Node != caller.Num() {
		t.Errorf("invoke span node = %d, want %d", invoke.Node, caller.Num())
	}
	if invoke.Status != "ok" {
		t.Errorf("invoke span status = %q, want ok", invoke.Status)
	}
	if invoke.Duration <= 0 {
		t.Errorf("invoke span duration = %v, want > 0", invoke.Duration)
	}

	serves := host.Telemetry().SpansFor(invoke.Trace)
	var serve *SpanRecord
	for _, sp := range serves {
		if sp.Name == "serve" {
			sp := sp
			serve = &sp
		}
	}
	if serve == nil {
		t.Fatalf("host recorded no serve span for trace %#x (host spans: %v)",
			invoke.Trace, host.Telemetry().Spans())
	}
	if serve.Node != host.Num() {
		t.Errorf("serve span node = %d, want %d", serve.Node, host.Num())
	}

	// The two nodes mint IDs independently; cross-node correlation only
	// works because the ID travels in the envelope. A second invocation
	// must get a fresh trace.
	if _, err := caller.Invoke(cap, "ping", []byte("y"), nil, opts); err != nil {
		t.Fatal(err)
	}
	var traces []uint64
	for _, sp := range caller.Telemetry().Spans() {
		if sp.Name == "invoke" {
			traces = append(traces, sp.Trace)
		}
	}
	if len(traces) != 2 || traces[0] == traces[1] {
		t.Errorf("want two invoke spans with distinct traces, got %v", traces)
	}
}

// TestTelemetryCountsLocalAndRemote checks the kernel's invocation
// counters split local from remote correctly and that latency
// histograms fill on both paths.
func TestTelemetryCountsLocalAndRemote(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.RegisterType(echoType()); err != nil {
		t.Fatal(err)
	}
	host, err := sys.AddNode("host")
	if err != nil {
		t.Fatal(err)
	}
	caller, err := sys.AddNode("caller")
	if err != nil {
		t.Fatal(err)
	}
	cap, err := host.CreateObject("echo")
	if err != nil {
		t.Fatal(err)
	}
	opts := &InvokeOptions{Timeout: 5 * time.Second}
	const localN, remoteN = 3, 5
	for i := 0; i < localN; i++ {
		if _, err := host.Invoke(cap, "ping", nil, nil, opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < remoteN; i++ {
		if _, err := caller.Invoke(cap, "ping", nil, nil, opts); err != nil {
			t.Fatal(err)
		}
	}

	hostSnap := host.Telemetry().Snapshot()
	callerSnap := caller.Telemetry().Snapshot()
	if got := hostSnap.Counters["kernel.invoke.local"]; got != localN {
		t.Errorf("host local invokes = %d, want %d", got, localN)
	}
	if got := callerSnap.Counters["kernel.invoke.remote"]; got != remoteN {
		t.Errorf("caller remote invokes = %d, want %d", got, remoteN)
	}
	if got := hostSnap.Counters["kernel.invoke.served"]; got != remoteN {
		t.Errorf("host served invokes = %d, want %d", got, remoteN)
	}
	if h := hostSnap.Histograms["kernel.invoke.local.latency"]; h.Count != localN {
		t.Errorf("host local latency samples = %d, want %d", h.Count, localN)
	}
	if h := callerSnap.Histograms["kernel.invoke.remote.latency"]; h.Count != remoteN {
		t.Errorf("caller remote latency samples = %d, want %d", h.Count, remoteN)
	}
	// Remote invocations cost at least one network round trip; the
	// distribution's mean must be positive and its quantiles ordered.
	h := callerSnap.Histograms["kernel.invoke.remote.latency"]
	if h.Mean() <= 0 {
		t.Errorf("remote latency mean = %v, want > 0", h.Mean())
	}
	if p50, p99 := h.Quantile(0.50), h.Quantile(0.99); p50 > p99 {
		t.Errorf("quantiles out of order: p50 %v > p99 %v", p50, p99)
	}
}

// TestObservabilityTableNamesEveryMetric runs a telemetry-on system
// through a remote call, a checkpoint, a move, an eviction, an async call
// and a restart, and fails if any name in a node's or the network's
// snapshot, or in a fault layer's, is missing from README's
// Observability table. On the way it checks that a node's registry reads
// the kernel's books and stays cumulative across the restart.
func TestObservabilityTableNamesEveryMetric(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	registerCounter(t, sys)
	a, err := sys.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := a.CreateObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	size := a.Telemetry().Snapshot().Gauges["kernel.memory.bytes"]
	if size <= 0 {
		t.Fatalf("kernel.memory.bytes = %d with one object resident", size)
	}
	// b holds one counter at a time, so a second evicts the first.
	b, err := sys.AddNodeWithConfig("b", NodeConfig{MemoryBytes: size * 3 / 2, EvictOnPressure: true})
	if err != nil {
		t.Fatal(err)
	}
	faults := telemetry.New()
	f, _ := faultyNode(t, sys, store.FaultConfig{Telemetry: faults})
	if _, err := f.CreateObject("counter"); err != nil {
		t.Fatal(err)
	}
	opts := &InvokeOptions{Timeout: 5 * time.Second}
	invoke := func(n *Node, c Capability) {
		t.Helper()
		if _, err := n.Invoke(c, "inc", nil, nil, opts); err != nil {
			t.Fatal(err)
		}
	}
	invoke(a, c1)
	invoke(b, c1)
	obj, err := a.Object(c1)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := <-obj.Move(b.Num()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateObject("counter"); err != nil {
		t.Fatal(err)
	}
	invoke(a, c1)
	if _, err := a.InvokeAsync(c1, "get", nil, nil, opts).Wait(); err != nil {
		t.Fatal(err)
	}
	for n, want := range map[*Node][]string{
		a: {"kernel.invoke.local", "kernel.invoke.remote", "kernel.checkpoints", "kernel.moves"},
		b: {"kernel.invoke.served", "kernel.evictions", "kernel.reincarnations"},
	} {
		snap := n.Telemetry().Snapshot()
		for _, m := range want {
			if snap.Counters[m] == 0 {
				t.Errorf("node %s: %s = 0 after the workload", n.Name(), m)
			}
		}
	}

	before := a.Telemetry().Snapshot()
	a.Crash()
	if err := a.Restart(); err != nil {
		t.Fatal(err)
	}
	after := a.Telemetry().Snapshot()
	for name, n := range before.Counters {
		if after.Counters[name] < n {
			t.Errorf("node a's %s went from %d to %d over a restart", name, n, after.Counters[name])
		}
	}
	if got, st := after.Counters["kernel.invoke.local"], a.Kernel().Stats(); got != before.Counters["kernel.invoke.local"] || st.LocalInvokes != 0 {
		t.Errorf("after the restart: kernel.invoke.local = %d, want %d; the new kernel's Stats read %d, want 0",
			got, before.Counters["kernel.invoke.local"], st.LocalInvokes)
	}

	documented := documentedMetrics(t)
	var missing []string
	for _, reg := range []*Telemetry{a.Telemetry(), b.Telemetry(), f.Telemetry(), sys.NetworkTelemetry(), faults} {
		snap := reg.Snapshot()
		for _, m := range []map[string]int64{snap.Counters, snap.Gauges} {
			for name := range m {
				if !documented[name] {
					missing = append(missing, name)
				}
			}
		}
		for name := range snap.Histograms {
			if !documented[name] {
				missing = append(missing, name)
			}
		}
	}
	slices.Sort(missing)
	if len(missing) > 0 {
		t.Errorf("README's Observability table lacks %v", slices.Compact(missing))
	}
}

// documentedMetrics returns the names README's Observability table lists:
// each row's prefix joined to each name quoted in its second column.
func documentedMetrics(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## Observability\n")
	section, _, _ = strings.Cut(section, "\n## ")
	quoted := regexp.MustCompile("`([^`]+)`")
	names := make(map[string]bool)
	for _, line := range strings.Split(section, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) < 4 {
			continue
		}
		prefix := quoted.FindStringSubmatch(cols[1])
		if prefix == nil || !strings.HasSuffix(prefix[1], "*") {
			continue
		}
		for _, m := range quoted.FindAllStringSubmatch(cols[2], -1) {
			names[strings.TrimSuffix(prefix[1], "*")+m[1]] = true
		}
	}
	return names
}
