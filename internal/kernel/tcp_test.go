package kernel

import (
	"fmt"
	"testing"
	"time"

	"eden/internal/transport"
)

// tcpSys wires kernels over real TCP loopback transports — the
// deployment shape of cmd/edennode — to prove the kernel protocols are
// transport-agnostic.
func tcpSys(t *testing.T, n int) (map[uint32]*Kernel, *Registry) {
	t.Helper()
	reg := NewRegistry()
	trs := make([]*transport.TCP, n)
	for i := 0; i < n; i++ {
		tr, err := transport.NewTCP(uint32(i+1), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	for i, tr := range trs {
		for j, peer := range trs {
			if i != j {
				tr.AddPeer(uint32(j+1), peer.Addr())
			}
		}
	}
	ks := make(map[uint32]*Kernel)
	for i, tr := range trs {
		cfg := DefaultConfig(uint32(i+1), fmt.Sprintf("tcp-node-%d", i+1))
		cfg.DefaultTimeout = 2 * time.Second
		k := New(cfg, tr, reg, nil)
		k.loc.DefaultTimeout = 500 * time.Millisecond
		ks[uint32(i+1)] = k
		t.Cleanup(func() { k.Close() })
	}
	return ks, reg
}

func TestTCPRemoteInvocation(t *testing.T) {
	ks, reg := tcpSys(t, 3)
	mustRegister(t, reg, counterType(nil))
	cap, err := ks[2].Create("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Locate via TCP broadcast, invoke via TCP unicast, from two
	// different nodes.
	if got := fromU64(mustInvoke(t, ks[1], cap, "inc", nil).Data); got != 1 {
		t.Errorf("inc over TCP = %d", got)
	}
	if got := fromU64(mustInvoke(t, ks[3], cap, "inc", nil).Data); got != 2 {
		t.Errorf("inc over TCP = %d", got)
	}
	if got := fromU64(mustInvoke(t, ks[2], cap, "get", nil).Data); got != 2 {
		t.Errorf("get = %d", got)
	}
}

func TestTCPMoveAndChase(t *testing.T) {
	ks, reg := tcpSys(t, 3)
	mustRegister(t, reg, counterType(nil))
	cap, _ := ks[1].Create("counter", nil)
	mustInvoke(t, ks[3], cap, "inc", nil) // node 3 caches home=1

	obj, err := ks[1].Object(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-obj.Move(2); err != nil {
		t.Fatal(err)
	}
	if got := fromU64(mustInvoke(t, ks[3], cap, "inc", nil).Data); got != 2 {
		t.Errorf("post-move inc over TCP = %d", got)
	}
}

func TestTCPRemoteChecksite(t *testing.T) {
	ks, reg := tcpSys(t, 2)
	mustRegister(t, reg, counterType(nil))
	cap, _ := ks[1].Create("counter", nil)
	obj, _ := ks[1].Object(cap.ID())
	if err := obj.SetChecksite(RelRemote, 2); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, ks[1], cap, "inc", nil)
	if err := obj.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The representation shipped over TCP to node 2's store.
	rec, err := ks[2].store.Get(cap.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 1 || rec.TypeName != "counter" {
		t.Errorf("shipped record = %+v", rec)
	}
}

func TestTCPReplicaReads(t *testing.T) {
	ks, reg := tcpSys(t, 2)
	mustRegister(t, reg, counterType(nil))
	cap, _ := ks[1].Create("counter", nil)
	mustInvoke(t, ks[1], cap, "inc", nil)
	obj, _ := ks[1].Object(cap.ID())
	if err := obj.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := obj.Replicate(2); err != nil {
		t.Fatal(err)
	}
	r0 := ks[2].Stats().RemoteInvokes
	rep, err := ks[2].Invoke(cap, "get", nil, nil, &InvokeOptions{AllowReplica: true})
	if err != nil || fromU64(rep.Data) != 1 {
		t.Fatalf("replica read over TCP: %v %d", err, fromU64(rep.Data))
	}
	if ks[2].Stats().RemoteInvokes != r0 {
		t.Error("replica read left the node")
	}
}
