package chaos

// Replica soak: run a home node and two checkpoint-serving checksites
// as real edennode processes, drive durable writes at the home and
// stale-tolerant reads through an in-process client, and SIGKILL
// checksites under that traffic. Two invariants, checked continuously:
//
//  1. Bounded staleness — a stale-tolerant read issued after an incdur
//     acked version V must observe version >= V. The bound is anchored
//     on the synchronous checkpoint ship: every checksite raised its
//     serving floor to V before the incdur could reply, so no shadow
//     below V is servable anywhere.
//  2. Failover — reads keep completing while a checksite is dead
//     (steered to the survivor or the home), and the restarted
//     checksite resumes serving once the next checkpoint ship
//     re-registers its backup (its /replicas view shows a live floor).
//
// Any breach persists a JSON artifact naming the seed that reproduces
// the schedule.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/kernel"
	"eden/internal/transport"
)

var reMetricsAddr = regexp.MustCompile(`telemetry on http://(127\.0\.0\.1:\d+)/metrics`)

// replicaView mirrors kernel.ReplicaStatus as the /replicas endpoint
// serves it; the soak only reads the serving-floor fields.
type replicaView struct {
	Home     uint32 `json:"home"`
	Floor    uint64 `json:"floor"`
	Disabled bool   `json:"disabled"`
	Shadow   bool   `json:"shadow"`
	Version  uint64 `json:"version"`
}

// servingFloor polls the node's /replicas view until it reports a
// backed-up object with an enabled serving floor >= want, or the
// deadline passes.
func servingFloor(addr string, want uint64, deadline time.Duration) error {
	limit := time.Now().Add(deadline)
	var last string
	for {
		resp, err := http.Get("http://" + addr + "/replicas")
		if err == nil {
			var views []replicaView
			derr := json.NewDecoder(resp.Body).Decode(&views)
			resp.Body.Close()
			if derr == nil {
				for _, v := range views {
					if !v.Disabled && v.Floor >= want {
						return nil
					}
				}
				last = fmt.Sprintf("%+v", views)
			} else {
				last = derr.Error()
			}
		} else {
			last = err.Error()
		}
		if time.Now().After(limit) {
			return fmt.Errorf("/replicas never reported floor >= %d: %s", want, last)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestReplicaSoakKillChecksites is the nightly replica chaos loop.
// Cycle count scales via EDEN_REPLICA_SOAK_CYCLES; the kill schedule's
// seed via EDEN_CHAOS_SEED.
func TestReplicaSoakKillChecksites(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns subprocesses")
	}
	bin := Build(t)
	cycles := EnvInt("EDEN_REPLICA_SOAK_CYCLES", 3)
	seed := int64(EnvInt("EDEN_CHAOS_SEED", 0))
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	t.Logf("replica soak: %d cycles, seed %d (replay with EDEN_CHAOS_SEED=%d)", cycles, seed, seed)

	// In-process client kernel over real TCP: the traffic generator. It
	// holds no types, so every invocation crosses the wire; it is peered
	// with all three nodes so locate replies and invalidation broadcasts
	// reach it and steer its stale-tolerant reads.
	ctr, err := transport.NewTCP(9, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ck := kernel.New(kernel.DefaultConfig(9, "soak-client"), ctr, kernel.NewRegistry(), nil)
	ck.Locator().DefaultTimeout = 500 * time.Millisecond
	t.Cleanup(func() { ck.Close() })

	addrs := map[uint32]string{1: FreePort(t), 2: FreePort(t), 3: FreePort(t)}
	for n, a := range addrs {
		ctr.AddPeer(n, a)
	}
	peersFor := func(self uint32) string {
		s := fmt.Sprintf("9=%s", ctr.Addr())
		for n, a := range addrs {
			if n != self {
				s += fmt.Sprintf(",%d=%s", n, a)
			}
		}
		return s
	}
	opts := map[uint32]NodeOpts{}
	for n := uint32(1); n <= 3; n++ {
		o := NodeOpts{Node: n, Listen: addrs[n], Peers: peersFor(n), StoreDir: t.TempDir()}
		if n != 1 {
			// Checksites serve checkpoint shadows and expose the
			// /replicas view the recovery check polls. The home never
			// dies in this soak, so recovery promotion would always be
			// split-brain; the long grace pins the fence shut even if a
			// loaded locate broadcast times out and triggers Recover.
			o.Args = []string{"-replicas", "-recover-grace", "2m", "-metrics", "127.0.0.1:0"}
		}
		opts[n] = o
	}
	procs := map[uint32]*Proc{}
	metricsAddr := map[uint32]string{}
	boot := func(n uint32) {
		procs[n] = StartNode(t, bin, opts[n])
		procs[n].Expect(t, reListening, 10*time.Second)
		if n != 1 {
			metricsAddr[n] = procs[n].Expect(t, reMetricsAddr, 10*time.Second)
		}
	}
	for n := uint32(1); n <= 3; n++ {
		boot(n)
	}

	procs[1].Send("create counter")
	capHex := procs[1].Expect(t, reCap, 10*time.Second)
	full := parseCapHex(t, capHex)
	procs[1].Send(fmt.Sprintf("checksite %s replicated 2,3", capHex))
	procs[1].Expect(t, regexp.MustCompile(`checksite replicated \[2 3\]`), 10*time.Second)

	model := &Model{}
	breach := func(cycle int, reason string) {
		t.Helper()
		tails := ""
		for n := uint32(1); n <= 3; n++ {
			tails += fmt.Sprintf("--- node %d ---\n%s\n", n, procs[n].Tail(2000))
		}
		WriteBreach(t, Breach{
			Seed: seed, Cycle: cycle, Reason: reason,
			Model: model.Snapshot(), NodeOutput: tails,
		})
		t.Fatalf("cycle %d: %s", cycle, reason)
	}

	// Baseline durable write: the checkpoint ships to both checksites
	// and is acked before the reply, so both serving floors are live.
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

	// Writer: durable increments for the whole soak. Failures are
	// expected while a checksite is dead (the ship cannot be acked) and
	// are safe — an unacknowledged write never raises the floor.
	stop := make(chan struct{})
	var unexpected atomic.Value
	var readsOK atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rep, err := ck.Invoke(full, "incdur", nil, nil, &kernel.InvokeOptions{Timeout: 8 * time.Second})
			if err == nil {
				if v, ver, perr := ParseStat(rep.Data); perr == nil {
					model.Ack(v, ver)
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	// Readers: stale-tolerant stats, each checked against the acked
	// floor sampled BEFORE the read was issued — the staleness bound.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := model.Snapshot()
				rep, err := ck.Invoke(full, "stat", nil, nil,
					&kernel.InvokeOptions{Timeout: 1500 * time.Millisecond, AllowReplica: true})
				if err != nil {
					// Timeouts and redirect races are legitimate while a
					// node is being killed under the caller's feet.
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
				if ver < floor.AckedVersion || v < floor.AckedValue {
					unexpected.CompareAndSwap(nil, fmt.Errorf(
						"staleness bound violated: read version %d value %d below acked floor version %d value %d",
						ver, v, floor.AckedVersion, floor.AckedValue))
					continue
				}
				readsOK.Add(1)
			}
		}()
	}

	checkTraffic := func(cycle int) {
		if e := unexpected.Load(); e != nil {
			breach(cycle, fmt.Sprintf("%v", e))
		}
	}

	for cycle := 1; cycle <= cycles; cycle++ {
		// Let traffic run into the kill at an unpredictable moment.
		time.Sleep(time.Duration(200+rng.Intn(300)) * time.Millisecond)
		checkTraffic(cycle)

		victim := uint32(2 + rng.Intn(2))
		procs[victim].Kill(t)

		// Failover: reads must keep completing with the checksite dead
		// (served by the survivor or the home), still above the floor.
		before := readsOK.Load()
		limit := time.Now().Add(15 * time.Second)
		for readsOK.Load() < before+5 {
			if time.Now().After(limit) {
				breach(cycle, fmt.Sprintf("reads stalled with checksite %d dead: %d completed in 15s",
					victim, readsOK.Load()-before))
			}
			checkTraffic(cycle)
			time.Sleep(50 * time.Millisecond)
		}
		checkTraffic(cycle)

		// Recovery: restart the victim against its surviving store. The
		// boot scan rebuilds its backup registry from the durable
		// records, the next acked checkpoint ship re-raises its floor,
		// and its /replicas view must show a live serving floor again.
		boot(victim)
		ackedBefore := model.Snapshot().Acks
		limit = time.Now().Add(30 * time.Second)
		for model.Snapshot().Acks == ackedBefore {
			if time.Now().After(limit) {
				breach(cycle, fmt.Sprintf("no durable write acked within 30s of checksite %d restarting", victim))
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err := servingFloor(metricsAddr[victim], model.Snapshot().AckedVersion, 30*time.Second); err != nil {
			breach(cycle, fmt.Sprintf("restarted checksite %d never resumed serving: %v", victim, err))
		}
		checkTraffic(cycle)
	}

	close(stop)
	wg.Wait()
	checkTraffic(cycles)
	m := model.Snapshot()
	t.Logf("survived %d checksite kills: %d acked writes, %d stale-tolerant reads, floor value=%d version=%d",
		cycles, m.Acks, readsOK.Load(), m.AckedValue, m.AckedVersion)
}
