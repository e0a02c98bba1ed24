package chaos

// Blackbox recovery of the move transaction: a real two-node system
// over TCP loopback, the source armed to die at one of the move's
// crash boundaries, restarted against its surviving store. After every
// crash exactly one node must serve the object, every acknowledged
// durable write must survive, capability rights must keep holding, and
// an invocation sent at the stale ex-home must be redirected to the
// real home — never executed against the pre-move record. Any breach
// persists a seed-named artifact.

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"time"

	"eden/internal/capability"
	"eden/internal/kernel"
	"eden/internal/killpoint"
	"eden/internal/rights"
	"eden/internal/transport"
)

// whereState asks one node's console for its bookkeeping on the object
// and waits for a state line matching what the caller asserts.
func whereState(t *testing.T, p *Proc, capHex string, want *regexp.Regexp) string {
	t.Helper()
	p.Send("where " + capHex)
	return p.Expect(t, want, 10*time.Second)
}

// client2 assembles an in-process observer kernel speaking real TCP to
// both nodes under test.
func client2(t *testing.T, addr1, addr2 string) (*kernel.Kernel, string) {
	t.Helper()
	tr, err := transport.NewTCP(9, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr.AddPeer(1, addr1)
	tr.AddPeer(2, addr2)
	k := kernel.New(kernel.DefaultConfig(9, "chaos-client"), tr, kernel.NewRegistry(), nil)
	k.Locator().DefaultTimeout = 500 * time.Millisecond
	t.Cleanup(func() { k.Close() })
	return k, tr.Addr()
}

// ackedIncdur drives one durable write through the client and folds the
// acknowledgment into the model, retrying allowed transients.
func ackedIncdur(t *testing.T, ck *kernel.Kernel, cap capability.Capability, model *Model, deadline time.Duration) {
	t.Helper()
	limit := time.Now().Add(deadline)
	for {
		rep, err := ck.Invoke(cap, "incdur", nil, nil, &kernel.InvokeOptions{Timeout: 2 * time.Second})
		if err == nil {
			v, ver, perr := ParseStat(rep.Data)
			if perr != nil {
				t.Fatal(perr)
			}
			model.Ack(v, ver)
			return
		}
		if !allowedTrafficErr(err) || time.Now().After(limit) {
			t.Fatalf("incdur never acknowledged: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// moveFixture is one cycle's system: the destination node (alive for
// the whole cycle), the observer client, the object's capabilities,
// and the acked-write model. The source node comes and goes as the
// cycle kills and restarts it.
type moveFixture struct {
	opts1, opts2     NodeOpts
	p2               *Proc
	ck               *kernel.Kernel
	capHex           string
	full, restricted capability.Capability
	model            *Model
	breach           func(reason, tail string)
}

// startArmedMove builds a fresh two-node system with the source armed
// at point, establishes durable state (checkpoint + 1-2 acked
// incdurs), crosses the armed boundary with a move, and returns once
// the source has died there. The destination stays up.
func startArmedMove(t *testing.T, bin string, point killpoint.Point, seed int64, cycle int, rng *rand.Rand) *moveFixture {
	t.Helper()
	store1, store2 := t.TempDir(), t.TempDir()
	addr1, addr2 := FreePort(t), FreePort(t)
	ck, clientAddr := client2(t, addr1, addr2)

	f := &moveFixture{
		opts1: NodeOpts{Node: 1, Listen: addr1, Peers: "2=" + addr2 + ",9=" + clientAddr, StoreDir: store1},
		opts2: NodeOpts{Node: 2, Listen: addr2, Peers: "1=" + addr1 + ",9=" + clientAddr, StoreDir: store2},
		ck:    ck,
		model: &Model{},
	}
	f.breach = func(reason, tail string) {
		t.Helper()
		WriteBreach(t, Breach{
			Seed: seed, Cycle: cycle, Reason: fmt.Sprintf("%s: %s", point, reason),
			Model: f.model.Snapshot(), NodeOutput: tail,
		})
		t.Fatalf("cycle %d (%s): %s", cycle, point, reason)
	}

	armed := f.opts1
	armed.Env = []string{killpoint.EnvPoint + "=" + string(point)}
	p1 := StartNode(t, bin, armed)
	f.p2 = StartNode(t, bin, f.opts2)
	p1.Expect(t, reArmed, 10*time.Second)
	p1.Expect(t, reListening, 10*time.Second)
	f.p2.Expect(t, reListening, 10*time.Second)

	p1.Send("create counter")
	f.capHex = p1.Expect(t, reCap, 10*time.Second)
	f.full = parseCapHex(t, f.capHex)
	f.restricted = f.full.Restrict(rights.Invoke)
	p1.Send("checkpoint " + f.capHex)
	p1.Expect(t, reCkptV1, 10*time.Second)

	// Raise the acked floor before the move: these writes were durable
	// at the source and must survive whichever way the move resolves.
	writes := 1 + rng.Intn(2)
	for i := 0; i < writes; i++ {
		ackedIncdur(t, ck, f.full, f.model, 15*time.Second)
	}

	// Cross the armed boundary: the source dies mid-move.
	p1.Send("move " + f.capHex + " 2")
	if code := p1.WaitExit(t, 15*time.Second); code != killpoint.KillExitCode {
		f.breach(fmt.Sprintf("armed node exited with code %d, want %d", code, killpoint.KillExitCode), p1.Tail(2000))
	}
	return f
}

// verifyResolved checks the post-recovery invariants against the
// restarted (unarmed) source r1: acked floors hold, writes land,
// stale-epoch invokes at the ex-home redirect, exactly one node is the
// home, and rights survive.
func (f *moveFixture) verifyResolved(t *testing.T, r1 *Proc, forward bool) {
	t.Helper()
	// Invariant 1: acked-write floors hold across the resolved move.
	floor := f.model.Snapshot()
	value, version, err := pollStat(f.ck, f.full, 20*time.Second)
	if err != nil {
		f.breach(err.Error(), "--- restarted source ---\n"+r1.Tail(4000)+"\n--- destination ---\n"+f.p2.Tail(4000))
	}
	if oerr := f.model.Observe(floor, value, version); oerr != nil {
		f.breach(oerr.Error(), "--- restarted source ---\n"+r1.Tail(4000))
	}
	// Writes keep landing on the one live incarnation.
	ackedIncdur(t, f.ck, f.full, f.model, 15*time.Second)

	// Invariant 2: a stale-epoch invoke at the ex-home redirects to the
	// real home and sees the current floor — it must not execute
	// against the pre-move record. (After a rollback the source IS the
	// home; the same probe then checks normal service.) Retried: while
	// the restarted node's links warm up the probe can land in-doubt,
	// which refuses service retryably by design. This touch also forces
	// the source to resolve any surviving intent before the bookkeeping
	// assertions below.
	snap := f.model.Snapshot()
	reRedirect := regexp.MustCompile(fmt.Sprintf(`ok \(16 bytes\): (%016x%016x)`, snap.AckedValue, snap.AckedVersion))
	for limit := time.Now().Add(20 * time.Second); ; {
		r1.Send("invoke " + f.capHex + " stat")
		time.Sleep(300 * time.Millisecond)
		if reRedirect.MatchString(r1.Output()) {
			break
		}
		if time.Now().After(limit) {
			f.breach(fmt.Sprintf("stale-epoch invoke at the ex-home never served the floor %d@%d",
				snap.AckedValue, snap.AckedVersion), r1.Tail(2000))
		}
	}

	// Invariant 3: exactly one home, and the move's debris is gone.
	// After a roll-forward the ex-home's record and intent must have
	// been reclaimed (a pre-commit crash leaves a live forwarding
	// pointer too; a post-commit restart holds nothing at all); after a
	// roll-back the destination must hold nothing.
	var wantSrc, wantDst *regexp.Regexp
	if forward {
		wantSrc = regexp.MustCompile(`where (active=false epoch=\d+ fwd=\S+ replica=\S+ backup=\S+ intent=false\S* store=no-record)`)
		wantDst = regexp.MustCompile(`where (active=true epoch=2 fwd=false\S* replica=\S+ backup=\S+ intent=false\S* store=\S+)`)
	} else {
		wantSrc = regexp.MustCompile(`where (active=true epoch=1 fwd=false\S* replica=\S+ backup=\S+ intent=false\S* store=\S+)`)
		wantDst = regexp.MustCompile(`where (active=false epoch=\d+ fwd=false\S* replica=\S+ backup=\S+ intent=false\S* store=no-record)`)
	}
	srcState := whereState(t, r1, f.capHex, wantSrc)
	dstState := whereState(t, f.p2, f.capHex, wantDst)
	if strings.Contains(srcState, "active=true") == strings.Contains(dstState, "active=true") {
		f.breach(fmt.Sprintf("not exactly one home: source %q, destination %q", srcState, dstState),
			r1.Tail(2000)+"\n--- destination ---\n"+f.p2.Tail(2000))
	}

	// Invariant 4: rights restrictions hold on the resolved home.
	if _, err := f.ck.Invoke(f.restricted, "secret", nil, nil, &kernel.InvokeOptions{Timeout: 2 * time.Second}); !errors.Is(err, kernel.ErrRights) {
		f.breach(fmt.Sprintf("restricted capability after recovery: err = %v, want rights refusal", err), r1.Tail(2000))
	}
	if _, err := f.ck.Invoke(f.full, "secret", nil, nil, &kernel.InvokeOptions{Timeout: 2 * time.Second}); err != nil {
		f.breach(fmt.Sprintf("full capability refused after recovery: %v", err), r1.Tail(2000))
	}
}

// TestKillpointRecoveryMove is the move half of the recovery matrix:
// for each crash boundary of the two-phase move, run
// EDEN_MOVE_KILL_CYCLES cycles (default 3; nightly >= 50) of
// create/write/move/die/restart and check the transaction resolved to
// exactly one home with every invariant intact.
func TestKillpointRecoveryMove(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns subprocesses")
	}
	bin := Build(t)
	cycles := EnvInt("EDEN_MOVE_KILL_CYCLES", 3)
	seed := int64(EnvInt("EDEN_CHAOS_SEED", 0))
	if seed == 0 {
		seed = time.Now().UnixNano()
	}

	cases := []struct {
		point killpoint.Point
		// forward reports where the object must land after recovery:
		// true = the destination (roll forward), false = back at the
		// source (roll back).
		forward bool
	}{
		// Died after the intent went durable but before the shipment:
		// the destination never installed, recovery must reclaim the
		// intent and resume at the source.
		{killpoint.MoveIntentDurable, false},
		// Died after the destination installed and acked but before the
		// source's durable commit: the epoch-2 incarnation exists and
		// may already be serving acked writes — recovery must commit.
		{killpoint.MovePreCommit, true},
		// Died just after the durable commit: nothing is in flight, the
		// ex-home must keep forwarding from a cold start.
		{killpoint.MovePostCommit, true},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(string(tc.point), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + int64(len(tc.point))))
			t.Logf("move recovery: %d cycles, seed %d (replay with EDEN_CHAOS_SEED=%d)", cycles, seed, seed)
			for cycle := 1; cycle <= cycles; cycle++ {
				runMoveRecoveryCycle(t, bin, tc.point, tc.forward, seed, cycle, rng)
			}
		})
	}
}

func runMoveRecoveryCycle(t *testing.T, bin string, point killpoint.Point, forward bool, seed int64, cycle int, rng *rand.Rand) {
	t.Helper()
	f := startArmedMove(t, bin, point, seed, cycle, rng)
	defer f.ck.Close()
	defer f.p2.Kill(t)

	// Reincarnate the source, unarmed, against the surviving store.
	r1 := StartNode(t, bin, f.opts1)
	r1.Expect(t, reListening, 10*time.Second)
	defer r1.Kill(t)
	f.verifyResolved(t, r1, forward)
}

// TestKillpointRecoveryResolve completes the matrix with the
// resolution boundaries, which only exist during recovery — so each
// case is a double crash: the source dies mid-move, restarts armed at
// a resolve killpoint, dies again the moment the first touch drives
// resolution across that boundary, and the third incarnation must
// still converge on exactly one home. This is the idempotence claim of
// the recovery table: dying inside resolution leaves debris the next
// resolution handles identically.
func TestKillpointRecoveryResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns subprocesses")
	}
	bin := Build(t)
	cycles := EnvInt("EDEN_MOVE_RESOLVE_CYCLES", 1)
	seed := int64(EnvInt("EDEN_CHAOS_SEED", 0))
	if seed == 0 {
		seed = time.Now().UnixNano()
	}

	cases := []struct {
		movePoint    killpoint.Point // where the original move dies
		resolvePoint killpoint.Point // where the recovery dies
		forward      bool
	}{
		// Recovery dies before probing: record and intent untouched,
		// the next recovery starts from scratch.
		{killpoint.MovePreCommit, killpoint.MoveResolve, true},
		// Recovery dies after the probe said "installed" but before any
		// of the commit's mutations: the re-resolution must reach the
		// same verdict.
		{killpoint.MovePreCommit, killpoint.MoveResolveCommit, true},
		// Recovery dies after the probe said "not installed" but before
		// the intent is reclaimed: the re-resolution rolls back again.
		{killpoint.MoveIntentDurable, killpoint.MoveResolveRollback, false},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(string(tc.resolvePoint), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + int64(len(tc.resolvePoint))))
			t.Logf("resolve recovery: %d cycles, seed %d (replay with EDEN_CHAOS_SEED=%d)", cycles, seed, seed)
			for cycle := 1; cycle <= cycles; cycle++ {
				runResolveRecoveryCycle(t, bin, tc.movePoint, tc.resolvePoint, tc.forward, seed, cycle, rng)
			}
		})
	}
}

func runResolveRecoveryCycle(t *testing.T, bin string, movePoint, resolvePoint killpoint.Point, forward bool, seed int64, cycle int, rng *rand.Rand) {
	t.Helper()
	f := startArmedMove(t, bin, movePoint, seed, cycle, rng)
	defer f.ck.Close()
	defer f.p2.Kill(t)

	// Second incarnation, armed at the resolve boundary: poke it with
	// console touches until one drives resolution into the killpoint.
	// Early touches can legitimately land in-doubt (links warming), so
	// the poke repeats until the process dies.
	armed := f.opts1
	armed.Env = []string{killpoint.EnvPoint + "=" + string(resolvePoint)}
	q := StartNode(t, bin, armed)
	q.Expect(t, reArmed, 10*time.Second)
	q.Expect(t, reListening, 10*time.Second)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			q.Send("invoke " + f.capHex + " stat")
			time.Sleep(500 * time.Millisecond)
		}
	}()
	code := q.WaitExit(t, 30*time.Second)
	close(stop)
	if code != killpoint.KillExitCode {
		f.breach(fmt.Sprintf("resolve-armed node exited with code %d, want %d", code, killpoint.KillExitCode), q.Tail(2000))
	}

	// Third incarnation, unarmed: the interrupted resolution must
	// replay to the same verdict.
	r1 := StartNode(t, bin, f.opts1)
	r1.Expect(t, reListening, 10*time.Second)
	defer r1.Kill(t)
	f.verifyResolved(t, r1, forward)
}
