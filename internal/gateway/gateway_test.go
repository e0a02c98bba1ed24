package gateway

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/kernel"
	"eden/internal/rights"
	"eden/internal/transport"
)

func testSys(t *testing.T, nodes ...uint32) (map[uint32]*kernel.Kernel, *kernel.Registry) {
	t.Helper()
	mesh := transport.NewMesh(5)
	t.Cleanup(func() { mesh.Close() })
	reg := kernel.NewRegistry()
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

func TestGatewayInvocation(t *testing.T) {
	ks, reg := testSys(t, 1, 2)
	name := "gateway.calc"
	err := Register(reg, Spec{
		TypeName: name,
		Ops: map[string]ForeignOp{
			"upper": func(data []byte) ([]byte, error) {
				return []byte(strings.ToUpper(string(data))), nil
			},
			"fail": func(data []byte) ([]byte, error) {
				return nil, errors.New("device offline")
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := ks[1].Create(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Foreign service reachable from a remote node, like any object.
	rep, err := ks[2].Invoke(cap, "upper", []byte("eden"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(rep.Data) != "EDEN" {
		t.Errorf("upper = %q", rep.Data)
	}
	// Foreign failures surface as invocation failures.
	if _, err := ks[2].Invoke(cap, "fail", nil, nil, nil); !errors.Is(err, kernel.ErrInvocationFailed) {
		t.Errorf("fail op: %v", err)
	}
	// Stats count only successful foreign requests.
	srep, err := ks[1].Invoke(cap, "gateway-stats", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := Requests(srep.Data); got != 1 {
		t.Errorf("Requests = %d, want 1", got)
	}
}

func TestGatewayRights(t *testing.T) {
	ks, reg := testSys(t, 1)
	name := "gateway.guarded"
	err := Register(reg, Spec{
		TypeName: name,
		Rights:   rights.Type(3),
		Ops: map[string]ForeignOp{
			"op": func(data []byte) ([]byte, error) { return data, nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cap, _ := ks[1].Create(name, nil)
	weak := cap.Restrict(rights.Invoke)
	if _, err := ks[1].Invoke(weak, "op", nil, nil, nil); !errors.Is(err, kernel.ErrRights) {
		t.Errorf("guarded gateway op without right: %v", err)
	}
	if _, err := ks[1].Invoke(cap, "op", nil, nil, nil); err != nil {
		t.Errorf("guarded gateway op with right: %v", err)
	}
}

func TestGatewaySerialized(t *testing.T) {
	ks, reg := testSys(t, 1)
	name := "gateway.printer"
	var cur, max atomic.Int64
	err := Register(reg, Spec{
		TypeName:   name,
		Serialized: true,
		Ops: map[string]ForeignOp{
			"print": func(data []byte) ([]byte, error) {
				n := cur.Add(1)
				for {
					m := max.Load()
					if n <= m || max.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(10 * time.Millisecond)
				cur.Add(-1)
				return nil, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cap, _ := ks[1].Create(name, nil)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ks[1].Invoke(cap, "print", []byte("x"), nil, &kernel.InvokeOptions{Timeout: 5 * time.Second}); err != nil {
				t.Errorf("print: %v", err)
			}
		}()
	}
	wg.Wait()
	if m := max.Load(); m != 1 {
		t.Errorf("serialized device saw %d concurrent requests", m)
	}
}

func TestGatewayValidation(t *testing.T) {
	_, reg := testSys(t, 1)
	if err := Register(reg, Spec{TypeName: "", Ops: map[string]ForeignOp{"x": nil}}); err == nil {
		t.Error("empty type name accepted")
	}
	if err := Register(reg, Spec{TypeName: "gw"}); err == nil {
		t.Error("no-ops spec accepted")
	}
	name := "gw.dup"
	spec := Spec{TypeName: name, Ops: map[string]ForeignOp{"x": func(b []byte) ([]byte, error) { return b, nil }}}
	if err := Register(reg, spec); err != nil {
		t.Fatal(err)
	}
	if err := Register(reg, spec); err == nil {
		t.Error("duplicate gateway registration accepted")
	}
}

func TestLinePrinterSpec(t *testing.T) {
	ks, reg := testSys(t, 1, 2)
	name := "gateway.lp"
	var mu sync.Mutex
	var printed []string
	err := Register(reg, LinePrinterSpec(name, func(line string) {
		mu.Lock()
		printed = append(printed, line)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	cap, _ := ks[1].Create(name, nil)
	if _, err := ks[2].Invoke(cap, "print", []byte("hello eden\n"), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ks[2].Invoke(cap, "print", nil, nil, nil); !errors.Is(err, kernel.ErrInvocationFailed) {
		t.Errorf("empty print: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(printed) != 1 || printed[0] != "hello eden" {
		t.Errorf("printed = %v", printed)
	}
}
