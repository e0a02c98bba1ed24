package naming

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/kernel"
	"eden/internal/rights"
	"eden/internal/transport"
)

// testSys builds an n-node system with the directory type registered.
func testSys(t *testing.T, nodes ...uint32) (map[uint32]*kernel.Kernel, *kernel.Registry) {
	t.Helper()
	mesh := transport.NewMesh(3)
	t.Cleanup(func() { mesh.Close() })
	reg := kernel.NewRegistry()
	if err := RegisterType(reg); err != nil {
		t.Fatal(err)
	}
	ks := make(map[uint32]*kernel.Kernel)
	for _, n := range nodes {
		ep, err := mesh.Attach(n)
		if err != nil {
			t.Fatal(err)
		}
		cfg := kernel.DefaultConfig(n, fmt.Sprintf("node-%d", n))
		cfg.DefaultTimeout = time.Second
		k := kernel.New(cfg, ep, reg, nil)
		k.Locator().DefaultTimeout = 250 * time.Millisecond
		ks[n] = k
		t.Cleanup(func() { k.Close() })
	}
	return ks, reg
}

// dummyTarget makes an object to bind names to.
func dummyTarget(t *testing.T, k *kernel.Kernel) capability.Capability {
	t.Helper()
	cap, err := CreateRoot(k) // directories are objects too
	if err != nil {
		t.Fatal(err)
	}
	return cap
}

func TestBindLookup(t *testing.T) {
	ks, _ := testSys(t, 1)
	root, err := CreateRoot(ks[1])
	if err != nil {
		t.Fatal(err)
	}
	target := dummyTarget(t, ks[1])
	if err := Bind(ks[1], root, "mailbox", target); err != nil {
		t.Fatal(err)
	}
	got, err := Lookup(ks[1], root, "mailbox")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != target.ID() {
		t.Errorf("lookup returned %v, want %v", got.ID(), target.ID())
	}
}

func TestLookupMissing(t *testing.T) {
	ks, _ := testSys(t, 1)
	root, _ := CreateRoot(ks[1])
	if _, err := Lookup(ks[1], root, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestBindDuplicateRejected(t *testing.T) {
	ks, _ := testSys(t, 1)
	root, _ := CreateRoot(ks[1])
	target := dummyTarget(t, ks[1])
	if err := Bind(ks[1], root, "x", target); err != nil {
		t.Fatal(err)
	}
	if err := Bind(ks[1], root, "x", target); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate bind: %v, want ErrExists", err)
	}
	// Rebind replaces silently.
	other := dummyTarget(t, ks[1])
	if err := Rebind(ks[1], root, "x", other); err != nil {
		t.Fatal(err)
	}
	got, _ := Lookup(ks[1], root, "x")
	if got.ID() != other.ID() {
		t.Error("rebind did not replace the binding")
	}
}

func TestUnbind(t *testing.T) {
	ks, _ := testSys(t, 1)
	root, _ := CreateRoot(ks[1])
	target := dummyTarget(t, ks[1])
	if err := Bind(ks[1], root, "x", target); err != nil {
		t.Fatal(err)
	}
	if err := Unbind(ks[1], root, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup(ks[1], root, "x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup after unbind: %v", err)
	}
	if err := Unbind(ks[1], root, "x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double unbind: %v", err)
	}
}

func TestBadNames(t *testing.T) {
	ks, _ := testSys(t, 1)
	root, _ := CreateRoot(ks[1])
	target := dummyTarget(t, ks[1])
	for _, bad := range []string{"", "a/b"} {
		if err := Bind(ks[1], root, bad, target); !errors.Is(err, ErrBadName) {
			t.Errorf("bind %q: %v, want ErrBadName", bad, err)
		}
	}
}

func TestListSorted(t *testing.T) {
	ks, _ := testSys(t, 1)
	root, _ := CreateRoot(ks[1])
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := Bind(ks[1], root, name, dummyTarget(t, ks[1])); err != nil {
			t.Fatal(err)
		}
	}
	names, err := List(ks[1], root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Errorf("List = %v, want %v", names, want)
	}
	// Empty directory lists empty.
	empty, _ := CreateRoot(ks[1])
	if names, err := List(ks[1], empty); err != nil || len(names) != 0 {
		t.Errorf("empty List = %v, %v", names, err)
	}
}

func TestMkdirAndResolve(t *testing.T) {
	ks, _ := testSys(t, 1)
	root, _ := CreateRoot(ks[1])
	home, err := Mkdir(ks[1], root, "home")
	if err != nil {
		t.Fatal(err)
	}
	users, err := Mkdir(ks[1], home, "users")
	if err != nil {
		t.Fatal(err)
	}
	target := dummyTarget(t, ks[1])
	if err := Bind(ks[1], users, "alice", target); err != nil {
		t.Fatal(err)
	}

	got, err := Resolve(ks[1], root, "home/users/alice")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != target.ID() {
		t.Error("Resolve found the wrong object")
	}
	if self, err := Resolve(ks[1], root, ""); err != nil || self.ID() != root.ID() {
		t.Errorf("Resolve(\"\") = %v, %v", self, err)
	}
	if _, err := Resolve(ks[1], root, "home//users"); !errors.Is(err, ErrBadName) {
		t.Errorf("Resolve with empty component: %v", err)
	}
	if _, err := Resolve(ks[1], root, "home/ghost/alice"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Resolve through missing component: %v", err)
	}
}

func TestWriteRightRequired(t *testing.T) {
	ks, _ := testSys(t, 1)
	root, _ := CreateRoot(ks[1])
	target := dummyTarget(t, ks[1])
	readOnly := root.Restrict(rights.Invoke)
	if err := Bind(ks[1], readOnly, "x", target); err == nil {
		t.Error("bind without WriteRight succeeded")
	}
	if err := Bind(ks[1], root, "x", target); err != nil {
		t.Fatal(err)
	}
	// Reads work with the restricted capability.
	if _, err := Lookup(ks[1], readOnly, "x"); err != nil {
		t.Errorf("lookup with read-only capability: %v", err)
	}
	if _, err := List(ks[1], readOnly); err != nil {
		t.Errorf("list with read-only capability: %v", err)
	}
}

func TestCrossNodeDirectory(t *testing.T) {
	ks, _ := testSys(t, 1, 2)
	root, _ := CreateRoot(ks[1])
	target := dummyTarget(t, ks[2])
	// Node 2 binds into node 1's directory, then resolves through it.
	if err := Bind(ks[2], root, "remote", target); err != nil {
		t.Fatal(err)
	}
	got, err := Lookup(ks[2], root, "remote")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != target.ID() {
		t.Error("cross-node lookup returned the wrong capability")
	}
}

func TestDirectorySurvivesPassivation(t *testing.T) {
	ks, _ := testSys(t, 1)
	root, _ := CreateRoot(ks[1])
	target := dummyTarget(t, ks[1])
	if err := Bind(ks[1], root, "persistent", target); err != nil {
		t.Fatal(err)
	}
	obj, err := ks[1].Object(root.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Passivate(); err != nil {
		t.Fatal(err)
	}
	got, err := Lookup(ks[1], root, "persistent")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != target.ID() {
		t.Error("binding lost across passivation")
	}
}
