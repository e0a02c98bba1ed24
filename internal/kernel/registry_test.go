package kernel

import (
	"errors"
	"strings"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/edenid"
	"eden/internal/rights"
	"eden/internal/segment"
	"eden/internal/store"
)

func TestRegistryRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	tm := NewType("t1")
	tm.Op(Operation{Name: "op", Handler: func(c *Call) {}})
	if err := r.Register(tm); err != nil {
		t.Fatal(err)
	}
	got, err := r.Lookup("t1")
	if err != nil || got != tm {
		t.Errorf("Lookup = %v, %v", got, err)
	}
	if _, err := r.Lookup("missing"); !errors.Is(err, ErrNoSuchType) {
		t.Errorf("missing lookup: %v", err)
	}
}

func TestRegistryRejectsDuplicatesAndNil(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(NewType("dup")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(NewType("dup")); err == nil {
		t.Error("duplicate registration succeeded")
	}
	if err := r.Register(nil); err == nil {
		t.Error("nil registration succeeded")
	}
	if err := r.Register(NewType("")); err == nil {
		t.Error("unnamed registration succeeded")
	}
}

func TestRegisterRejectsReadOnlyWriter(t *testing.T) {
	// A hand-built Operations map bypasses Op's validation; Register
	// must reject the same contradiction Op panics on, because the
	// reader pool schedules purely on these declarations.
	r := NewRegistry()
	tm := NewType("contradiction")
	tm.Operations["boom"] = &Operation{
		Name:     "boom",
		ReadOnly: true,
		Access:   AccessWrite,
		Handler:  func(c *Call) {},
	}
	if err := r.Register(tm); err == nil {
		t.Fatal("Register accepted a ReadOnly operation declaring AccessWrite")
	}
	if _, err := r.Lookup("contradiction"); err == nil {
		t.Error("rejected type was installed anyway")
	}

	// A nil operation in the map is a registration error, not a later
	// dispatch panic.
	nilOp := NewType("nil-op")
	nilOp.Operations["ghost"] = nil
	if err := r.Register(nilOp); err == nil {
		t.Error("Register accepted a nil operation")
	}

	// The consistent pair is normalized exactly as Op normalizes it:
	// ReadOnly implies AccessRead and vice versa.
	ok := NewType("normalized")
	ok.Operations["ro"] = &Operation{Name: "ro", ReadOnly: true, Handler: func(c *Call) {}}
	ok.Operations["ar"] = &Operation{Name: "ar", Access: AccessRead, Handler: func(c *Call) {}}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if got := ok.Operations["ro"].Access; got != AccessRead {
		t.Errorf("ReadOnly op normalized to Access %v, want AccessRead", got)
	}
	if !ok.Operations["ar"].ReadOnly {
		t.Error("AccessRead op not normalized to ReadOnly")
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"zebra", "ant", "mole"} {
		if err := r.Register(NewType(n)); err != nil {
			t.Fatal(err)
		}
	}
	names := r.Names()
	want := []string{"ant", "mole", "zebra"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v", names)
		}
	}
}

func TestOpValidation(t *testing.T) {
	tm := NewType("v")
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { tm.Op(Operation{Handler: func(c *Call) {}}) })
	mustPanic("nil handler", func() { tm.Op(Operation{Name: "x"}) })
	tm.Op(Operation{Name: "x", Handler: func(c *Call) {}})
	mustPanic("duplicate", func() { tm.Op(Operation{Name: "x", Handler: func(c *Call) {}}) })
	mustPanic("negative limit", func() { tm.Limit("c", -1) })
}

func TestDefaultClassAssigned(t *testing.T) {
	tm := NewType("d")
	tm.Op(Operation{Name: "x", Handler: func(c *Call) {}})
	if tm.Operations["x"].Class != DefaultClass {
		t.Errorf("class = %q", tm.Operations["x"].Class)
	}
}

func TestResolveOpInheritance(t *testing.T) {
	r := NewRegistry()
	base := NewType("base")
	base.Op(Operation{Name: "shared", Handler: func(c *Call) {}})
	mid := NewType("mid")
	mid.Extends = "base"
	mid.Op(Operation{Name: "midop", Handler: func(c *Call) {}})
	leaf := NewType("leaf")
	leaf.Extends = "mid"
	for _, tm := range []*TypeManager{base, mid, leaf} {
		if err := r.Register(tm); err != nil {
			t.Fatal(err)
		}
	}

	tt, err := r.table("leaf")
	if err != nil {
		t.Fatal(err)
	}
	if op := tt.ops["shared"]; op == nil || op.Operation != base.Operations["shared"] {
		t.Errorf("ops[shared] = %v, want the root type's operation", op)
	}
	if op := tt.ops["midop"]; op == nil || op.Operation != mid.Operations["midop"] {
		t.Errorf("ops[midop] = %v, want the supertype's operation", op)
	}
	if op := tt.ops["ghost"]; op != nil {
		t.Errorf("ops[ghost] = %v", op)
	}
	if again, _ := r.table("leaf"); again != tt {
		t.Error("table rebuilt on second use; it must be built once per type")
	}
}

func TestResolveOpBrokenChain(t *testing.T) {
	r := NewRegistry()
	orphan := NewType("orphan")
	orphan.Extends = "never-registered"
	if err := r.Register(orphan); err != nil {
		t.Fatal(err)
	}
	if _, err := r.table("orphan"); err == nil {
		t.Error("resolve through missing supertype succeeded")
	}
	// The supertype may simply not be registered yet: the failure must
	// not stick.
	if err := r.Register(NewType("never-registered")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.table("orphan"); err != nil {
		t.Errorf("resolve after the supertype registered: %v", err)
	}
}

// TestHierarchyCycleIsAnError: two types that extend each other used
// to hang Create forever (classLimit walked the chain with no guard).
// Every walk now goes through one guarded walker, so Create and Invoke
// report the cycle instead.
func TestHierarchyCycleIsAnError(t *testing.T) {
	s := newSys(t, 1)
	a := NewType("cyc-a")
	a.Extends = "cyc-b"
	a.Op(Operation{Name: "x", Handler: func(c *Call) {}})
	b := NewType("cyc-b")
	b.Extends = "cyc-a"
	mustRegister(t, s.reg, a, b)

	errc := make(chan error, 1)
	go func() {
		_, err := s.ks[1].Create("cyc-a", nil)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Errorf("Create on a cyclic hierarchy: err = %v, want a cycle error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Create on a cyclic hierarchy hung")
	}

	// Invoke meets the hierarchy when it reincarnates a passive object
	// of the type; that path hung the same way.
	id := edenid.NewGenerator(1).Next()
	if err := s.stores[1].Put(store.Record{Object: id, TypeName: "cyc-a", Version: 1, Epoch: 1, Rep: segment.New().Encode(nil)}); err != nil {
		t.Fatal(err)
	}
	go func() {
		_, err := s.ks[1].Invoke(capability.New(id, rights.All), "x", nil, nil, &InvokeOptions{Timeout: time.Second})
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("Invoke on a cyclic hierarchy succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Invoke on a cyclic hierarchy hung")
	}
}

func TestClassLimitInheritance(t *testing.T) {
	r := NewRegistry()
	base := NewType("lim-base")
	base.Limit("w", 3)
	sub := NewType("lim-sub")
	sub.Extends = "lim-base"
	override := NewType("lim-override")
	override.Extends = "lim-base"
	override.Limit("w", 7)
	for _, tm := range []*TypeManager{base, sub, override} {
		if err := r.Register(tm); err != nil {
			t.Fatal(err)
		}
	}
	limit := func(typ, class string) int {
		tt, err := r.table(typ)
		if err != nil {
			t.Fatal(err)
		}
		for _, cl := range tt.classes {
			if cl.name == class {
				return cl.limit
			}
		}
		return 0
	}
	if got := limit("lim-sub", "w"); got != 3 {
		t.Errorf("inherited limit = %d, want 3", got)
	}
	if got := limit("lim-override", "w"); got != 7 {
		t.Errorf("overridden limit = %d, want 7", got)
	}
	if got := limit("lim-base", "unknown"); got != 0 {
		t.Errorf("unknown class limit = %d, want 0", got)
	}
}

func TestAnatomyDescribe(t *testing.T) {
	s := newSys(t, 1)
	mustRegister(t, s.reg, counterType(nil))
	cap, _ := s.ks[1].Create("counter", nil)
	obj, _ := s.ks[1].Object(cap.ID())
	_ = obj.Semaphore("lock", 1)
	_ = obj.Port("box", 2)
	_ = obj.Checkpoint()

	a := obj.Describe()
	if a.Name != cap.ID() {
		t.Errorf("Name = %v", a.Name)
	}
	if a.TypeName != "counter" {
		t.Errorf("TypeName = %q", a.TypeName)
	}
	if a.Version != 1 {
		t.Errorf("Version = %d", a.Version)
	}
	if len(a.Segments) != 1 || a.Segments[0].Name != "n" || a.Segments[0].Kind != "data" || a.Segments[0].Len != 8 {
		t.Errorf("Segments = %+v", a.Segments)
	}
	found := map[string]bool{}
	for _, op := range a.Operations {
		found[op] = true
	}
	for _, want := range []string{"inc", "get", "slow", "fail"} {
		if !found[want] {
			t.Errorf("Operations missing %q: %v", want, a.Operations)
		}
	}
	if lim, ok := a.Classes["write"]; !ok || lim != 1 {
		t.Errorf("Classes = %v", a.Classes)
	}
	if len(a.Semaphores) != 1 || a.Semaphores[0] != "lock" {
		t.Errorf("Semaphores = %v", a.Semaphores)
	}
	if len(a.Ports) != 1 || a.Ports[0] != "box" {
		t.Errorf("Ports = %v", a.Ports)
	}
	if a.Frozen || a.Replica || a.Running != 0 {
		t.Errorf("flags = %+v", a)
	}
}

func TestRightsNeverAmplifiedThroughInvocation(t *testing.T) {
	// An invocation's capability parameters travel verbatim; the
	// receiving handler sees exactly the rights the sender held — no
	// more. (Amplification is impossible by construction: only
	// Restrict exists.)
	s := newSys(t, 1)
	inspect := NewType("inspector")
	inspect.Op(Operation{
		Name: "check",
		Handler: func(c *Call) {
			if len(c.Caps) != 1 {
				c.Fail("want one capability")
				return
			}
			c.Return([]byte(c.Caps[0].Rights().String()))
		},
	})
	mustRegister(t, s.reg, counterType(nil), inspect)
	target, _ := s.ks[1].Create("counter", nil)
	insp, _ := s.ks[1].Create("inspector", nil)
	weak := target.Restrict(rights.Invoke)
	rep, err := s.ks[1].Invoke(insp, "check", nil, capability.List{weak}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(rep.Data) != "invoke" {
		t.Errorf("receiver saw rights %q, want %q", rep.Data, "invoke")
	}
}
