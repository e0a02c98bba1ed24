package eden

import (
	"errors"
	"sync"
	"testing"
	"time"

	"eden/internal/efs"
	"eden/internal/store"
)

func testSystem(t *testing.T, n int) (*System, []*Node) {
	t.Helper()
	sys, err := NewSystem(SystemConfig{
		DefaultTimeout: time.Second,
		LocateTimeout:  250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i], err = sys.AddNode("node")
		if err != nil {
			t.Fatal(err)
		}
	}
	return sys, nodes
}

// registerCounter installs a minimal counter type for facade tests.
func registerCounter(t *testing.T, sys *System) {
	t.Helper()
	tm := NewType("counter")
	tm.Init = func(o *Object) error {
		return o.Update(func(r *Representation) error {
			r.SetData("n", []byte{0})
			return nil
		})
	}
	tm.Limit("write", 1)
	tm.Op(Operation{
		Name:  "inc",
		Class: "write",
		Handler: func(c *Call) {
			_ = c.Self().Update(func(r *Representation) error {
				b, _ := r.Data("n")
				b[0]++
				r.SetData("n", b)
				c.Return(b)
				return nil
			})
		},
	})
	tm.Op(Operation{
		Name:   "get",
		Access: AccessRead,
		Handler: func(c *Call) {
			c.Self().View(func(r *Representation) {
				b, _ := r.Data("n")
				c.Return(b)
			})
		},
	})
	if err := sys.RegisterType(tm); err != nil {
		t.Fatal(err)
	}
}

func TestSystemEndToEnd(t *testing.T) {
	sys, nodes := testSystem(t, 3)
	registerCounter(t, sys)
	cap, err := nodes[0].CreateObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	// Every node can invoke, wherever the object lives.
	for i, n := range nodes {
		rep, err := n.Invoke(cap, "inc", nil, nil, nil)
		if err != nil {
			t.Fatalf("node %d invoke: %v", i, err)
		}
		if int(rep.Data[0]) != i+1 {
			t.Errorf("node %d inc = %d", i, rep.Data[0])
		}
	}
}

func TestSystemNodeNumbersAndLookup(t *testing.T) {
	sys, nodes := testSystem(t, 2)
	if nodes[0].Num() == nodes[1].Num() {
		t.Error("duplicate node numbers")
	}
	if sys.Node(nodes[0].Num()) != nodes[0] {
		t.Error("Node() lookup broken")
	}
	if got := sys.Nodes(); len(got) != 2 || got[0] != nodes[0] || got[1] != nodes[1] {
		t.Error("Nodes() order broken")
	}
}

func TestSystemCrashRestart(t *testing.T) {
	sys, nodes := testSystem(t, 2)
	registerCounter(t, sys)
	cap, _ := nodes[0].CreateObject("counter")
	if _, err := nodes[0].Invoke(cap, "inc", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	obj, err := nodes[0].Object(cap)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	nodes[0].Crash()
	if !nodes[0].Down() {
		t.Error("Down() = false after Crash")
	}
	if _, err := nodes[1].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 400 * time.Millisecond}); err == nil {
		t.Error("invocation succeeded while home down without checksite")
	}
	if err := nodes[0].Restart(); err != nil {
		t.Fatal(err)
	}
	rep, err := nodes[1].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Data[0] != 1 {
		t.Errorf("state after restart = %d", rep.Data[0])
	}
	if err := nodes[0].Restart(); err == nil {
		t.Error("Restart of a running node succeeded")
	}
}

func TestSystemPartitionHeal(t *testing.T) {
	sys, nodes := testSystem(t, 2)
	registerCounter(t, sys)
	cap, _ := nodes[0].CreateObject("counter")
	sys.Partition(nodes[0], nodes[1])
	if _, err := nodes[1].Invoke(cap, "get", nil, nil, &InvokeOptions{Timeout: 300 * time.Millisecond}); err == nil {
		t.Error("invocation crossed a partition")
	}
	sys.Heal(nodes[0], nodes[1])
	if _, err := nodes[1].Invoke(cap, "get", nil, nil, nil); err != nil {
		t.Errorf("invocation after heal: %v", err)
	}
}

func TestSystemDirectoryFacade(t *testing.T) {
	sys, nodes := testSystem(t, 2)
	registerCounter(t, sys)
	root, err := nodes[0].NewDirectory()
	if err != nil {
		t.Fatal(err)
	}
	cap, _ := nodes[1].CreateObject("counter")
	if err := nodes[1].Bind(root, "shared-counter", cap); err != nil {
		t.Fatal(err)
	}
	names, err := nodes[0].ListNames(root)
	if err != nil || len(names) != 1 || names[0] != "shared-counter" {
		t.Fatalf("ListNames = %v, %v", names, err)
	}
	got, err := nodes[0].LookupName(root, "shared-counter")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != cap.ID() {
		t.Error("directory returned wrong capability")
	}
	if _, err := nodes[0].Invoke(got, "inc", nil, nil, nil); err != nil {
		t.Errorf("invoke through directory: %v", err)
	}
}

func TestSystemEFSFacade(t *testing.T) {
	sys, nodes := testSystem(t, 2)
	_ = sys
	fs := nodes[0].EFS(efs.Optimistic)
	f, err := fs.CreateFile()
	if err != nil {
		t.Fatal(err)
	}
	tx := fs.Begin()
	if err := tx.Write(f, 0, []byte("via facade")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	data, ver, err := nodes[1].EFS(efs.Optimistic).Read(f)
	if err != nil || ver != 1 || string(data) != "via facade" {
		t.Errorf("remote EFS read = v%d %q %v", ver, data, err)
	}
}

func TestSystemRightsRestriction(t *testing.T) {
	sys, nodes := testSystem(t, 1)
	registerCounter(t, sys)
	cap, _ := nodes[0].CreateObject("counter")
	weak := cap.Restrict(RightGrant) // drops RightInvoke
	if _, err := nodes[0].Invoke(weak, "get", nil, nil, nil); !errors.Is(err, ErrRights) {
		t.Errorf("invoke without RightInvoke: %v", err)
	}
}

// TestObjectHandleNeedsKernelRights: Node.Object hands out a handle that
// can update, checkpoint, move, freeze and destroy the object, so a
// capability without every kernel-defined right gets ErrRights and no
// handle, and the representation stays as it was.
func TestObjectHandleNeedsKernelRights(t *testing.T) {
	sys, nodes := testSystem(t, 1)
	registerCounter(t, sys)
	full, err := nodes[0].CreateObject("counter")
	if err != nil {
		t.Fatal(err)
	}
	mustGet := func() byte {
		t.Helper()
		rep, err := nodes[0].Invoke(full, "get", nil, nil, nil)
		if err != nil || len(rep.Data) != 1 {
			t.Fatalf("get: %v %v", rep.Data, err)
		}
		return rep.Data[0]
	}
	before := mustGet()
	for _, weak := range []Capability{full.Restrict(0), full.Restrict(RightInvoke)} {
		obj, err := nodes[0].Object(weak)
		if !errors.Is(err, ErrRights) {
			t.Errorf("Object with rights %v: err = %v, want ErrRights", weak.Rights(), err)
		}
		if obj != nil {
			_ = obj.Update(func(r *Representation) error {
				r.SetData("n", []byte{before + 1})
				return nil
			})
		}
	}
	if got := mustGet(); got != before {
		t.Errorf("representation changed through a restricted capability: n = %d, want %d", got, before)
	}
	if _, err := nodes[0].Object(full); err != nil {
		t.Errorf("Object with the creator's capability: %v", err)
	}
}

func TestSystemCloseIdempotent(t *testing.T) {
	sys, _ := testSystem(t, 1)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddNode("late"); err == nil {
		t.Error("AddNode after Close succeeded")
	}
}

func TestSystemConcurrentUse(t *testing.T) {
	sys, nodes := testSystem(t, 4)
	registerCounter(t, sys)
	cap, _ := nodes[0].CreateObject("counter")
	var wg sync.WaitGroup
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := n.Invoke(cap, "inc", nil, nil, &InvokeOptions{Timeout: 5 * time.Second}); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rep, err := nodes[0].Invoke(cap, "get", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int(rep.Data[0]) != 40 {
		t.Errorf("final count = %d, want 40", rep.Data[0])
	}
}

func TestFileBackedNodeStore(t *testing.T) {
	sys, err := NewSystem(SystemConfig{DefaultTimeout: time.Second, LocateTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	registerCounter(t, sys)
	dir := t.TempDir()
	n, err := sys.AddNodeWithConfig("durable", NodeConfig{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cap, _ := n.CreateObject("counter")
	if _, err := n.Invoke(cap, "inc", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	obj, _ := n.Object(cap)
	if err := obj.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n.Crash()
	if err := n.Restart(); err != nil {
		t.Fatal(err)
	}
	rep, err := n.Invoke(cap, "get", nil, nil, nil)
	if err != nil || rep.Data[0] != 1 {
		t.Errorf("after file-backed restart: %v %v", rep, err)
	}
	// Crash closed the node's log and Restart reopened it; Close closes
	// the one open now.
	sys.Close()
	if _, err := n.file.List(); !errors.Is(err, store.ErrClosed) {
		t.Errorf("node store after System.Close: %v, want ErrClosed", err)
	}
}

func TestPathFSFacade(t *testing.T) {
	_, nodes := testSystem(t, 2)
	fs, err := nodes[0].NewPathFS(efs.Optimistic)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("home/alice/todo", []byte("read SOSP'81")); err != nil {
		t.Fatal(err)
	}
	remote := nodes[1].MountPathFS(fs.Root(), efs.Optimistic)
	data, ver, err := remote.Read("home/alice/todo")
	if err != nil || ver != 1 || string(data) != "read SOSP'81" {
		t.Errorf("remote path read = v%d %q %v", ver, data, err)
	}
}
