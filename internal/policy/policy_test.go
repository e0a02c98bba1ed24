package policy

import (
	"fmt"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/kernel"
	"eden/internal/rights"
	"eden/internal/segment"
	"eden/internal/transport"
)

func testSys(t *testing.T, nodes ...uint32) (map[uint32]*kernel.Kernel, *kernel.Registry) {
	t.Helper()
	mesh := transport.NewMesh(11)
	t.Cleanup(func() { mesh.Close() })
	reg := kernel.NewRegistry()
	if err := RegisterType(reg); err != nil {
		t.Fatal(err)
	}
	// A subject type to place around.
	subj := kernel.NewType("subject")
	subj.Op(kernel.Operation{Name: "ping", Access: kernel.AccessRead, Handler: func(c *kernel.Call) { c.Return([]byte("pong")) }})
	if err := reg.Register(subj); err != nil {
		t.Fatal(err)
	}
	ks := make(map[uint32]*kernel.Kernel)
	for _, n := range nodes {
		ep, err := mesh.Attach(n)
		if err != nil {
			t.Fatal(err)
		}
		cfg := kernel.DefaultConfig(n, fmt.Sprintf("node-%d", n))
		cfg.DefaultTimeout = 2 * time.Second
		k := kernel.New(cfg, ep, reg, nil)
		k.Locator().DefaultTimeout = 250 * time.Millisecond
		ks[n] = k
		t.Cleanup(func() { k.Close() })
	}
	return ks, reg
}

func TestPlaceBalances(t *testing.T) {
	ks, _ := testSys(t, 1, 2, 3)
	pol, err := Create(ks[1], 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint32]int{}
	for i := 0; i < 9; i++ {
		cap, _ := ks[1].Create("subject", nil)
		dest, err := Place(ks[1], pol, cap)
		if err != nil {
			t.Fatal(err)
		}
		counts[dest]++
	}
	for n, c := range counts {
		if c != 3 {
			t.Errorf("node %d got %d placements, want 3 (counts %v)", n, c, counts)
		}
	}
	// The loads are even, so the next three placements cover the pool
	// once, in pool order.
	for _, want := range []uint32{1, 2, 3} {
		if got := placeNew(t, ks[1], pol); got != want {
			t.Errorf("placement after an even pool = node %d, want %d", got, want)
		}
	}
}

// placeNew creates a subject object and returns where the policy
// places it.
func placeNew(t *testing.T, k *kernel.Kernel, pol capability.Capability) uint32 {
	t.Helper()
	cap, err := k.Create("subject", nil)
	if err != nil {
		t.Fatal(err)
	}
	dest, err := Place(k, pol, cap)
	if err != nil {
		t.Fatal(err)
	}
	return dest
}

func TestPlaceIdempotent(t *testing.T) {
	ks, _ := testSys(t, 1, 2)
	pol, _ := Create(ks[1], 1, 2)
	cap, _ := ks[1].Create("subject", nil)
	first, err := Place(ks[1], pol, cap)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Place(ks[1], pol, cap)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("re-placement moved the object: %d then %d", first, second)
	}
	// Counted once, the pool is even after one more placement, so the
	// one after it returns to the first node; counted twice, it would not.
	if got := placeNew(t, ks[1], pol); got == first {
		t.Errorf("placement after %d = %d again", first, got)
	}
	if got := placeNew(t, ks[1], pol); got != first {
		t.Errorf("double-counted placement: next placement = node %d, want %d", got, first)
	}
}

func TestEmptyPoolFails(t *testing.T) {
	ks, _ := testSys(t, 1)
	pol, err := Create(ks[1]) // no nodes
	if err != nil {
		t.Fatal(err)
	}
	cap, _ := ks[1].Create("subject", nil)
	if _, err := Place(ks[1], pol, cap); err == nil {
		t.Error("placement against empty pool succeeded")
	}
}

func TestAdminRightRequired(t *testing.T) {
	ks, _ := testSys(t, 1, 2)
	pol, _ := Create(ks[1], 1)
	weak := pol.Restrict(rights.Invoke)
	if err := SetNodes(ks[1], weak, 1, 2); err == nil {
		t.Error("set-nodes without AdminRight succeeded")
	}
	// Placement needs only Invoke.
	cap, _ := ks[1].Create("subject", nil)
	if _, err := Place(ks[1], weak, cap); err != nil {
		t.Errorf("place with invoke-only capability: %v", err)
	}
}

func TestPlaceAndMove(t *testing.T) {
	ks, _ := testSys(t, 1, 2, 3)
	pol, _ := Create(ks[1], 2, 3) // pool excludes the creating node
	var dests []uint32
	for i := 0; i < 4; i++ {
		cap, err := ks[1].Create("subject", nil)
		if err != nil {
			t.Fatal(err)
		}
		dest, err := PlaceAndMove(ks[1], pol, cap)
		if err != nil {
			t.Fatal(err)
		}
		dests = append(dests, dest)
		// The object serves from its assigned node.
		if rep, err := ks[1].Invoke(cap, "ping", nil, nil, nil); err != nil || string(rep.Data) != "pong" {
			t.Fatalf("ping after placement: %v %q", err, rep.Data)
		}
	}
	if len(ks[2].ActiveObjects()) != 2 || len(ks[3].ActiveObjects()) != 2 {
		t.Errorf("placement skew: node2=%d node3=%d (dests %v)",
			len(ks[2].ActiveObjects()), len(ks[3].ActiveObjects()), dests)
	}
}

func TestSetNodesPreservesLoads(t *testing.T) {
	ks, _ := testSys(t, 1, 2, 3)
	pol, _ := Create(ks[1], 1, 2)
	capA, _ := ks[1].Create("subject", nil)
	destA, _ := Place(ks[1], pol, capA)
	// Grow the pool; existing load on destA must be remembered.
	if err := SetNodes(ks[1], pol, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if destA != 1 {
		t.Fatalf("first placement = node %d, want 1", destA)
	}
	// Node 1 keeps its load and node 3 joins with none: the next two
	// placements go to 2 and then 3.
	if got := placeNew(t, ks[1], pol); got != 2 {
		t.Errorf("load lost across set-nodes: next placement = node %d, want 2", got)
	}
	if got := placeNew(t, ks[1], pol); got != 3 {
		t.Errorf("new node has phantom load: next placement = node %d, want 3", got)
	}
}

func TestPolicySurvivesPassivation(t *testing.T) {
	ks, _ := testSys(t, 1, 2)
	pol, _ := Create(ks[1], 1, 2)
	cap, _ := ks[1].Create("subject", nil)
	dest, err := Place(ks[1], pol, cap)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := ks[1].Object(pol.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Passivate(); err != nil {
		t.Fatal(err)
	}
	// Assignments survive; re-placement is still idempotent.
	again, err := Place(ks[1], pol, cap)
	if err != nil {
		t.Fatal(err)
	}
	if again != dest {
		t.Errorf("re-placement after passivation = node %d, want %d", again, dest)
	}
	// So do the loads: a new object goes to the other node.
	if got := placeNew(t, ks[1], pol); got == dest {
		t.Errorf("loads lost across passivation: new object placed on node %d again", got)
	}
}

func TestPoolCodec(t *testing.T) {
	r := segment.New()
	in := []poolEntry{{node: 7, load: 3}, {node: 9, load: 0}}
	writePool(r, in)
	out := readPool(r)
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Errorf("pool round trip: %v -> %v", in, out)
	}
	empty := segment.New()
	if got := readPool(empty); got != nil {
		t.Errorf("readPool on empty rep = %v", got)
	}
}
