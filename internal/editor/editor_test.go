package editor

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"eden/internal/kernel"
	"eden/internal/segment"
	"eden/internal/transport"
)

func testSys(t *testing.T, nodes ...uint32) (map[uint32]*kernel.Kernel, *kernel.Registry) {
	t.Helper()
	mesh := transport.NewMesh(13)
	t.Cleanup(func() { mesh.Close() })
	reg := kernel.NewRegistry()
	if err := RegisterBaseType(reg); err != nil {
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

// noteType extends the displayable base, inheriting its display.
func noteType(name string) *kernel.TypeManager {
	tm := kernel.NewType(name)
	tm.Extends = BaseTypeName
	tm.Init = func(o *kernel.Object) error {
		return o.Update(func(r *segment.Representation) error {
			r.SetData("text", []byte("empty note"))
			return nil
		})
	}
	return tm
}

func TestInheritedDisplay(t *testing.T) {
	ks, reg := testSys(t, 1)
	if err := reg.Register(noteType("note")); err != nil {
		t.Fatal(err)
	}
	cap, err := ks[1].Create("note", nil)
	if err != nil {
		t.Fatal(err)
	}
	out := Render(ks[1], cap)
	// The inherited default display renders the anatomy: name, type,
	// segments.
	for _, want := range []string{"object " + cap.ID().String(), "type note", "segment text data"} {
		if !strings.Contains(out, want) {
			t.Errorf("display missing %q:\n%s", want, out)
		}
	}
}

func TestOverriddenDisplay(t *testing.T) {
	ks, reg := testSys(t, 1)
	tm := noteType("fancy-note")
	tm.Op(kernel.Operation{
		Name:   DisplayOp,
		Access: kernel.AccessRead,
		Handler: func(c *kernel.Call) {
			c.Self().View(func(r *segment.Representation) {
				text, _ := r.Data("text")
				c.Return([]byte("NOTE: " + string(text)))
			})
		},
	})
	if err := reg.Register(tm); err != nil {
		t.Fatal(err)
	}
	cap, _ := ks[1].Create("fancy-note", nil)
	if got := Render(ks[1], cap); got != "NOTE: empty note" {
		t.Errorf("overridden display = %q", got)
	}
}

func TestRenderRemoteObject(t *testing.T) {
	ks, reg := testSys(t, 1, 2)
	if err := reg.Register(noteType("note")); err != nil {
		t.Fatal(err)
	}
	cap, _ := ks[1].Create("note", nil)
	// The editor on node 2 renders node 1's object transparently.
	out := Render(ks[2], cap)
	if !strings.Contains(out, "type note") {
		t.Errorf("remote render = %q", out)
	}
}

func TestRenderUndisplayableObject(t *testing.T) {
	ks, reg := testSys(t, 1)
	plain := kernel.NewType("plain")
	plain.Op(kernel.Operation{Name: "noop", Handler: func(c *kernel.Call) {}})
	if err := reg.Register(plain); err != nil {
		t.Fatal(err)
	}
	cap, _ := ks[1].Create("plain", nil)
	out := Render(ks[1], cap)
	if !strings.Contains(out, "no visual representation") {
		t.Errorf("undisplayable render = %q", out)
	}
}
