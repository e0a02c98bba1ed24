package chaos

// Blackbox crash loops: SIGKILL a real edennode under concurrent
// invoke traffic, restart it against the surviving store, and verify
// every reincarnation replays a consistent checkpoint. And the
// negative control: a node whose store lies about fsync must fail
// these same checks, with a persisted artifact naming the seed.

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/kernel"
	"eden/internal/rights"
	"eden/internal/transport"
)

// client assembles an in-process kernel speaking real TCP to the node
// under test — the traffic generator and observer of the crash loop.
// It holds no types: every invocation it issues crosses the wire.
func client(t *testing.T, nodeAddr string) (*kernel.Kernel, string) {
	t.Helper()
	tr, err := transport.NewTCPWithConfig(9, "127.0.0.1:0", transport.Config{
		DialTimeout:   500 * time.Millisecond,
		RedialBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.AddPeer(1, nodeAddr)
	k := kernel.New(kernel.DefaultConfig(9, "chaos-client"), tr, kernel.NewRegistry(), nil)
	k.Locator().DefaultTimeout = 500 * time.Millisecond
	t.Cleanup(func() { k.Close() })
	return k, tr.Addr()
}

func parseCapHex(t *testing.T, capHex string) capability.Capability {
	t.Helper()
	raw, err := hex.DecodeString(capHex)
	if err != nil {
		t.Fatal(err)
	}
	c, rest, err := capability.Decode(raw)
	if err != nil || len(rest) != 0 {
		t.Fatalf("bad capability from console: %v", err)
	}
	return c
}

// allowedTrafficErr reports whether an invocation error is legitimate
// while the serving node is being killed and restarted under the
// caller's feet. Anything else — rights errors, handler failures,
// corrupt replies — is an invariant breach.
func allowedTrafficErr(err error) bool {
	return errors.Is(err, kernel.ErrTimeout) ||
		errors.Is(err, kernel.ErrCrashed) ||
		errors.Is(err, kernel.ErrNoSuchObject) ||
		errors.Is(err, kernel.ErrClosed)
}

// pollStat reads the counter's post-restart state, retrying while the
// node comes back up and reincarnates the object.
func pollStat(ck *kernel.Kernel, cap capability.Capability, deadline time.Duration) (value, version uint64, err error) {
	limit := time.Now().Add(deadline)
	for {
		rep, ierr := ck.Invoke(cap, "stat", nil, nil, &kernel.InvokeOptions{Timeout: time.Second})
		if ierr == nil {
			return ParseStat(rep.Data)
		}
		err = ierr
		if !allowedTrafficErr(ierr) || time.Now().After(limit) {
			return 0, 0, fmt.Errorf("object unrecoverable: %w", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestCrashLoopSIGKILL is the acceptance loop: N SIGKILL/restart
// cycles under concurrent incdur traffic, with zero tolerated
// invariant breaches. Cycle count scales via EDEN_CRASHLOOP_CYCLES
// (the nightly job runs >= 50); the seed via EDEN_CHAOS_SEED.
func TestCrashLoopSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns subprocesses")
	}
	bin := Build(t)
	cycles := EnvInt("EDEN_CRASHLOOP_CYCLES", 5)
	seed := int64(EnvInt("EDEN_CHAOS_SEED", 0))
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	t.Logf("crash loop: %d cycles, seed %d (replay with EDEN_CHAOS_SEED=%d)", cycles, seed, seed)

	storeDir := t.TempDir()
	nodeAddr := FreePort(t)
	ck, clientAddr := client(t, nodeAddr)
	opts := NodeOpts{Node: 1, Listen: nodeAddr, Peers: "9=" + clientAddr, StoreDir: storeDir}

	p := StartNode(t, bin, opts)
	p.Expect(t, reListening, 10*time.Second)
	p.Send("create counter")
	full := parseCapHex(t, p.Expect(t, reCap, 10*time.Second))
	restricted := full.Restrict(rights.Invoke)

	model := &Model{}
	breach := func(cycle int, reason, nodeTail string) {
		t.Helper()
		WriteBreach(t, Breach{
			Seed: seed, Cycle: cycle, Reason: reason,
			Model: model.Snapshot(), NodeOutput: nodeTail,
		})
		t.Fatalf("cycle %d: %s", cycle, reason)
	}

	// Baseline durable write, so the object exists in the store before
	// the first kill (creation alone is volatile). Retried while the
	// TCP link warms up.
	warm := time.Now().Add(15 * time.Second)
	for {
		rep, err := ck.Invoke(full, "incdur", nil, nil, &kernel.InvokeOptions{Timeout: 2 * time.Second})
		if err == nil {
			v, ver, perr := ParseStat(rep.Data)
			if perr != nil {
				t.Fatal(perr)
			}
			model.Ack(v, ver)
			break
		}
		if time.Now().After(warm) {
			t.Fatalf("baseline incdur never succeeded: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Concurrent invoke traffic for the whole loop: every acknowledged
	// incdur raises the durability floor the next restart must meet.
	stop := make(chan struct{})
	var unexpected atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep, err := ck.Invoke(full, "incdur", nil, nil, &kernel.InvokeOptions{Timeout: 1500 * time.Millisecond})
				if err != nil {
					if !allowedTrafficErr(err) {
						unexpected.CompareAndSwap(nil, err)
					}
					continue
				}
				v, ver, perr := ParseStat(rep.Data)
				if perr != nil {
					unexpected.CompareAndSwap(nil, perr)
					continue
				}
				model.Ack(v, ver)
			}
		}()
	}

	for cycle := 1; cycle <= cycles; cycle++ {
		// Let traffic run into the kill at an unpredictable moment.
		time.Sleep(time.Duration(100+rng.Intn(200)) * time.Millisecond)
		p.Kill(t)
		prevTail := p.Tail(4000)
		p = StartNode(t, bin, opts)

		// Invariant 1+2: no lost acknowledged writes, monotonic
		// versions across reincarnation.
		floor := model.Snapshot()
		value, version, err := pollStat(ck, full, 20*time.Second)
		if err != nil {
			breach(cycle, err.Error(), prevTail+"\n--- restarted node ---\n"+p.Tail(4000))
		}
		if oerr := model.Observe(floor, value, version); oerr != nil {
			breach(cycle, oerr.Error(), prevTail+"\n--- restarted node ---\n"+p.Tail(4000))
		}

		// Invariant 3: capability rights survive reincarnation — the
		// Invoke-only capability must keep being refused the guarded
		// operation, and the full one must keep reaching it.
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, err := ck.Invoke(restricted, "secret", nil, nil, &kernel.InvokeOptions{Timeout: time.Second})
			if errors.Is(err, kernel.ErrRights) {
				break // preserved
			}
			if err == nil {
				breach(cycle, "rights restriction lost across reincarnation: restricted capability reached guarded operation", p.Tail(4000))
			}
			if time.Now().After(deadline) {
				breach(cycle, fmt.Sprintf("rights check unanswerable after restart: %v", err), p.Tail(4000))
			}
			time.Sleep(100 * time.Millisecond)
		}
		for {
			_, err := ck.Invoke(full, "secret", nil, nil, &kernel.InvokeOptions{Timeout: time.Second})
			if err == nil {
				break
			}
			if errors.Is(err, kernel.ErrRights) {
				breach(cycle, "full capability refused a guarded operation after reincarnation", p.Tail(4000))
			}
			if time.Now().After(deadline) {
				breach(cycle, fmt.Sprintf("guarded operation unreachable after restart: %v", err), p.Tail(4000))
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	close(stop)
	wg.Wait()
	if e := unexpected.Load(); e != nil {
		breach(cycles, fmt.Sprintf("traffic saw a disallowed error: %v", e), p.Tail(4000))
	}
	m := model.Snapshot()
	t.Logf("survived %d kill/restart cycles: %d acked writes, floor value=%d version=%d, final value=%d version=%d",
		cycles, m.Acks, m.AckedValue, m.AckedVersion, m.ObservedValue, m.ObservedVersion)
}

// TestSyncLieLosesAckedWrites is the harness's negative control: run a
// node whose store acknowledges writes before they are durable, crash
// it, and demonstrate the invariant checks catch the loss — persisting
// a breach artifact that names the seed. If this test ever finds the
// data intact, the fault injection (or the harness) has stopped
// working.
func TestSyncLieLosesAckedWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns subprocesses")
	}
	bin := Build(t)
	const seed = 4242
	storeDir := t.TempDir()
	addr := FreePort(t)
	honest := NodeOpts{Node: 1, Listen: addr, StoreDir: storeDir}
	lying := honest
	lying.Args = []string{"-fault-sync-lie"}

	p := StartNode(t, bin, lying)
	p.Expect(t, regexp.MustCompile(`fault layer armed under the log: sync-lie=true`), 10*time.Second)
	p.Expect(t, reListening, 10*time.Second)
	p.Send("create counter")
	capHex := p.Expect(t, reCap, 10*time.Second)

	// Three acknowledged "durable" writes — every one a lie, held only
	// in the fault layer's memory.
	model := &Model{}
	for i := uint64(1); i <= 3; i++ {
		p.Send("invoke " + capHex + " incdur")
		rep := p.Expect(t, regexp.MustCompile(fmt.Sprintf(`ok \(16 bytes\): (%016x[0-9a-f]{16})`, i)), 10*time.Second)
		v, ver, err := ParseStatHex(rep)
		if err != nil {
			t.Fatal(err)
		}
		model.Ack(v, ver)
	}

	p.Kill(t) // the lie comes due: what the layer held dies with the process

	r := StartNode(t, bin, honest)
	r.Expect(t, reListening, 10*time.Second)
	r.Send("invoke " + capHex + " stat")
	out := r.Expect(t, regexp.MustCompile(`no such object|no checkpoint|crashed|ok \(16 bytes\): [0-9a-f]{32}`), 15*time.Second)

	var reason string
	if strings.HasPrefix(out, "ok (") {
		v, ver, err := ParseStatHex(out[len(out)-32:])
		if err != nil {
			t.Fatal(err)
		}
		if oerr := model.Observe(model.Snapshot(), v, ver); oerr != nil {
			reason = oerr.Error()
		}
	} else {
		reason = "acknowledged writes unrecoverable after crash: " + out
	}
	if reason == "" {
		t.Fatal("sync-lie run recovered every acknowledged write; fault injection is not working")
	}

	path := WriteBreach(t, Breach{
		Seed: seed, Cycle: 1, Reason: reason,
		Model: model.Snapshot(), NodeOutput: r.Tail(2000),
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("breach artifact unreadable: %v", err)
	}
	if !strings.Contains(string(data), fmt.Sprint(seed)) {
		t.Fatalf("breach artifact does not name the seed %d:\n%s", seed, data)
	}
	t.Logf("sync-lie breach detected and persisted: %s", reason)
}
