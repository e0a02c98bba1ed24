package kernel

// Tests that a node's telemetry registry reads the kernel's own books:
// what Stats counts once is what a snapshot shows, a registry several
// kernels share adds them up, and a closed kernel leaves only its last
// reading behind.

import (
	"runtime"
	"testing"
	"time"

	"eden/internal/edenid"
	"eden/internal/telemetry"
	"eden/internal/transport"
)

// TestServedCallsAreNotLocal: a call another node started is served
// here, not satisfied here without the network, in Stats and in the
// registry alike.
func TestServedCallsAreNotLocal(t *testing.T) {
	s := newSys(t, 1)
	tel := telemetry.New()
	s.addNodeCfg(2, func(c *Config) { c.Telemetry = tel })
	mustRegister(t, s.reg, counterType(nil))
	cp, err := s.ks[2].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for range n {
		mustInvoke(t, s.ks[1], cp, "inc", nil)
	}
	if st := s.ks[2].Stats(); st.LocalInvokes != 0 || st.ServedInvokes != n {
		t.Errorf("node 2: %d local, %d served; want 0 and %d", st.LocalInvokes, st.ServedInvokes, n)
	}
	snap := tel.Snapshot()
	if local, served := snap.Counters["kernel.invoke.local"], snap.Counters["kernel.invoke.served"]; local != 0 || served != n {
		t.Errorf("node 2's registry: %d local, %d served; want 0 and %d", local, served, n)
	}
}

// TestSharedRegistryAddsNodesUp: two kernels report into one registry.
// Its gauges are the sum of the two nodes' levels, and after one node
// closes, the survivor's; its counters keep the closed node's last
// reading, while each kernel's Stats stays its own.
func TestSharedRegistryAddsNodesUp(t *testing.T) {
	tel := telemetry.New()
	s := newSys(t)
	for _, n := range []uint32{1, 2} {
		s.addNodeCfg(n, func(c *Config) { c.Telemetry = tel })
	}
	mustRegister(t, s.reg, counterType(nil))
	for _, n := range []uint32{1, 1, 2} {
		cp, err := s.ks[n].Create("counter", nil)
		if err != nil {
			t.Fatal(err)
		}
		mustInvoke(t, s.ks[n], cp, "inc", nil)
	}
	sum := func(ks ...*Kernel) (want levels) {
		for _, k := range ks {
			l := k.levels()
			want.active += l.active
			want.memory += l.memory
		}
		return want
	}
	check := func(step string, want levels, local int64) {
		t.Helper()
		snap := tel.Snapshot()
		if got := snap.Gauges["kernel.objects.active"]; got != int64(want.active) {
			t.Errorf("%s: kernel.objects.active = %d, want %d", step, got, want.active)
		}
		if got := snap.Gauges["kernel.memory.bytes"]; got != want.memory {
			t.Errorf("%s: kernel.memory.bytes = %d, want %d", step, got, want.memory)
		}
		if got := snap.Counters["kernel.invoke.local"]; got != local {
			t.Errorf("%s: kernel.invoke.local = %d, want %d", step, got, local)
		}
	}
	both := sum(s.ks[1], s.ks[2])
	if both.active != 3 || both.memory <= sum(s.ks[1]).memory {
		t.Fatalf("nodes hold %+v, want three objects, some on each node", both)
	}
	check("both up", both, 3)
	if a, b := s.ks[1].Stats().LocalInvokes, s.ks[2].Stats().LocalInvokes; a != 2 || b != 1 {
		t.Errorf("Stats: %d and %d local invokes, want 2 and 1", a, b)
	}
	s.ks[1].Close()
	check("node 1 closed", sum(s.ks[2]), 3)
	s.ks[1].Close() // a second Close leaves the last reading as it was
	check("node 1 closed twice", sum(s.ks[2]), 3)
}

// TestRegistryLetsGoOfAClosedKernel: once a kernel closes, the registry
// it reported into holds nothing of it but its last reading. The
// finalizer sits on the kernel's id generator, which only the kernel
// holds: the kernel itself is in cycles (its objects, its locator's host
// check), and a finalizer on a block in a cycle never runs.
func TestRegistryLetsGoOfAClosedKernel(t *testing.T) {
	tel := telemetry.New()
	freed := make(chan struct{})
	func() {
		mesh := transport.NewMesh(7)
		defer mesh.Close()
		ep, err := mesh.Attach(1)
		if err != nil {
			t.Fatal(err)
		}
		types := NewRegistry()
		mustRegister(t, types, counterType(nil))
		cfg := DefaultConfig(1, "closed")
		cfg.Telemetry = tel
		k := New(cfg, ep, types, nil)
		cp, err := k.Create("counter", nil)
		if err != nil {
			t.Fatal(err)
		}
		mustInvoke(t, k, cp, "inc", nil)
		k.Close()
		runtime.SetFinalizer(k.gen, func(*edenid.Generator) { close(freed) })
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-freed:
			if got := tel.Snapshot().Counters["kernel.invoke.local"]; got != 1 {
				t.Errorf("kernel.invoke.local = %d after the kernel closed, want its last reading 1", got)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a closed kernel is still reachable")
		}
	}
}
