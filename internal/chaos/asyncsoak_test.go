package chaos

// Async-writer crash soak: crash-loop a real edennode while the
// traffic generator drives it exclusively through the client kernel's
// bounded async dispatcher. Two invariants on top of the crash-loop
// floor: every acknowledged async completion must survive the next
// reincarnation (the acked-write floor, as in TestCrashLoopSIGKILL),
// and every Pending ever submitted must resolve or fail crisply — an
// async invocation that silently never completes is a breach even
// when no data is lost.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/kernel"
)

// pendingResolveGrace bounds how long one async submission may stay
// unresolved before the soak calls it hung. It is far beyond the
// submission timeout plus a restart, so only a genuinely stranded
// Pending trips it.
const pendingResolveGrace = 30 * time.Second

func TestAsyncWriterCrashSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns subprocesses")
	}
	bin := Build(t)
	cycles := EnvInt("EDEN_ASYNC_SOAK_CYCLES", 3)
	seed := int64(EnvInt("EDEN_CHAOS_SEED", 0))
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	t.Logf("async writer soak: %d cycles, seed %d (replay with EDEN_CHAOS_SEED=%d)", cycles, seed, seed)

	storeDir := t.TempDir()
	nodeAddr := FreePort(t)
	ck, clientAddr := client(t, nodeAddr)
	opts := NodeOpts{Node: 1, Listen: nodeAddr, Peers: "9=" + clientAddr, StoreDir: storeDir}

	p := StartNode(t, bin, opts)
	p.Expect(t, reListening, 10*time.Second)
	p.Send("create counter")
	full := parseCapHex(t, p.Expect(t, reCap, 10*time.Second))

	model := &Model{}
	breach := func(cycle int, reason, nodeTail string) {
		t.Helper()
		WriteBreach(t, Breach{
			Seed: seed, Cycle: cycle, Reason: reason,
			Model: model.Snapshot(), NodeOutput: nodeTail,
		})
		t.Fatalf("cycle %d: %s", cycle, reason)
	}

	// Baseline durable write so the object exists in the store before
	// the first kill; retried while the TCP link warms up.
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

	// Async writer traffic for the whole loop: each worker keeps a
	// bounded window of InvokeAsync submissions in flight and settles
	// the oldest before submitting past it, so the node is always under
	// overlapping async writes without the client queue growing
	// unboundedly. Every settled Pending either acked (raising the
	// durability floor the next restart must meet) or failed with an
	// error legitimate for a node being killed under the caller.
	const window = 8
	stop := make(chan struct{})
	var unexpected atomic.Value
	var settled, acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			settle := func(p *kernel.Pending) {
				select {
				case <-p.Done():
				case <-time.After(pendingResolveGrace):
					unexpected.CompareAndSwap(nil, errors.New("async pending unresolved past the grace period"))
					return
				}
				settled.Add(1)
				rep, err := p.Wait()
				if err != nil {
					if !allowedTrafficErr(err) {
						unexpected.CompareAndSwap(nil, err)
					}
					return
				}
				v, ver, perr := ParseStat(rep.Data)
				if perr != nil {
					unexpected.CompareAndSwap(nil, perr)
					return
				}
				model.Ack(v, ver)
				acked.Add(1)
			}
			var inflight []*kernel.Pending
			for {
				select {
				case <-stop:
					// Drain: everything submitted must still resolve.
					for _, p := range inflight {
						settle(p)
					}
					return
				default:
				}
				inflight = append(inflight, ck.InvokeAsync(full, "incdur", nil, nil, &kernel.InvokeOptions{Timeout: 1500 * time.Millisecond}))
				if len(inflight) >= window {
					settle(inflight[0])
					inflight = inflight[1:]
				}
			}
		}()
	}

	for cycle := 1; cycle <= cycles; cycle++ {
		// Let async traffic run into the kill at an unpredictable
		// moment.
		time.Sleep(time.Duration(100+rng.Intn(200)) * time.Millisecond)
		p.Kill(t)
		prevTail := p.Tail(4000)
		p = StartNode(t, bin, opts)

		// No acknowledged async completion may be lost, and versions
		// stay monotonic across reincarnation.
		floor := model.Snapshot()
		value, version, err := pollStat(ck, full, 20*time.Second)
		if err != nil {
			breach(cycle, err.Error(), prevTail+"\n--- restarted node ---\n"+p.Tail(4000))
		}
		if oerr := model.Observe(floor, value, version); oerr != nil {
			breach(cycle, oerr.Error(), prevTail+"\n--- restarted node ---\n"+p.Tail(4000))
		}
	}

	close(stop)
	wg.Wait()
	if e := unexpected.Load(); e != nil {
		breach(cycles, fmt.Sprintf("async traffic invariant failed: %v", e), p.Tail(4000))
	}
	m := model.Snapshot()
	t.Logf("survived %d kill/restart cycles under async writers: %d pendings settled, %d acked, floor value=%d version=%d",
		cycles, settled.Load(), acked.Load(), m.AckedValue, m.AckedVersion)
}
