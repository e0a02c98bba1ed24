package chaos

// Table-driven whitebox recovery tests: arm one killpoint in a child
// edennode through the environment, drive it to the boundary, let it
// die there, and assert the reincarnated representation matches the
// last durable checkpoint exactly.

import (
	"fmt"
	"regexp"
	"testing"
	"time"

	"eden/internal/killpoint"
)

var (
	reListening = regexp.MustCompile(`listening on`)
	reCap       = regexp.MustCompile(`cap ([0-9a-f]+)`)
	reCkptV1    = regexp.MustCompile(`checkpointed at version 1`)
	reArmed     = regexp.MustCompile(`killpoint armed: `)
	reOK8       = regexp.MustCompile(`ok \(8 bytes\)`)
)

// reIncdurOK matches the console reply of the i-th successful incdur
// after the baseline checkpoint: value i, checkpoint version i+1.
func reIncdurOK(i int) *regexp.Regexp {
	return regexp.MustCompile(fmt.Sprintf(`ok \(16 bytes\): %016x%016x`, i, i+1))
}

// reStatOK matches a stat reply of exactly value/version.
func reStatOK(value, version uint64) *regexp.Regexp {
	return regexp.MustCompile(fmt.Sprintf(`ok \(16 bytes\): %016x%016x`, value, version))
}

// TestKillpointRecovery kills a node at each single-node crash
// boundary and asserts recovery lands on the last durable checkpoint.
// Each case runs the same prologue — create, explicit checkpoint
// (version 1, value 0), then incdurs (the i-th acknowledges value i at
// version i+1), then an optional volatile command — then issues the
// console command that crosses the armed boundary and dies there with
// the killpoint exit code.
//
// The move transaction's boundaries (move.intent-durable,
// move.pre-commit, move.post-commit) need a live destination node and
// are exercised blackbox by TestKillpointRecoveryMove; the resolve-side
// boundaries fire during that test's recovery phase and are swept
// in-process by the kernel package's TestKillpointSweep.
func TestKillpointRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns subprocesses")
	}
	bin := Build(t)

	cases := []struct {
		name      string
		point     killpoint.Point
		after     int    // boundary crossings to let pass before dying
		okIncdurs int    // incdurs acknowledged before the dying command
		pre       string // console command (%s = cap) run before the dying one, if any
		die       string // console command (%s = cap) that crosses the armed boundary
		wantValue uint64 // durable state recovery must land on
		wantVer   uint64
	}{
		// Baseline checkpoint crosses pre-sync once, the first incdur
		// again; the second incdur dies before its write is durable —
		// recovery must show only the acknowledged first increment.
		{"", killpoint.CheckpointPreSync, 2, 1, "", "invoke %s incdur", 1, 2},
		// Same schedule, but the death is after the write hit the
		// medium: the unacknowledged second increment must survive.
		{"", killpoint.CheckpointPostSync, 2, 1, "", "invoke %s incdur", 2, 3},
		// A third, volatile increment makes the object dirty: passivation
		// checkpoints it (version 4) and dies before releasing active
		// state. The passivation checkpoint — the only record of that
		// increment — must be what reincarnates.
		{"/dirty", killpoint.PassivatePreRelease, 0, 2, "invoke %s inc", "passivate %s", 3, 4},
		// Unchanged since its last checkpoint, the object passivates
		// without writing and dies at the same boundary: that checkpoint
		// reincarnates, at its own version.
		{"/clean", killpoint.PassivatePreRelease, 0, 2, "", "passivate %s", 2, 3},
		// A move that dies after quiescing but before the
		// representation leaves the node must reincarnate at this home,
		// unchanged.
		{"", killpoint.MovePreShip, 0, 2, "", "move %s 9", 2, 3},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(string(tc.point)+tc.name, func(t *testing.T) {
			storeDir := t.TempDir()
			addr := FreePort(t)
			opts := NodeOpts{Node: 1, Listen: addr, StoreDir: storeDir}

			armed := opts
			armed.Env = []string{
				killpoint.EnvPoint + "=" + string(tc.point),
				fmt.Sprintf("%s=%d", killpoint.EnvAfter, tc.after),
			}
			p := StartNode(t, bin, armed)
			p.Expect(t, reArmed, 10*time.Second)
			p.Expect(t, reListening, 10*time.Second)
			p.Send("create counter")
			capHex := p.Expect(t, reCap, 10*time.Second)
			p.Send("checkpoint " + capHex)
			p.Expect(t, reCkptV1, 10*time.Second)
			for i := 1; i <= tc.okIncdurs; i++ {
				p.Send("invoke " + capHex + " incdur")
				p.Expect(t, reIncdurOK(i), 10*time.Second)
			}
			if tc.pre != "" {
				p.Send(fmt.Sprintf(tc.pre, capHex))
				p.Expect(t, reOK8, 10*time.Second)
			}
			p.Send(fmt.Sprintf(tc.die, capHex))
			if code := p.WaitExit(t, 15*time.Second); code != killpoint.KillExitCode {
				t.Fatalf("armed node exited with code %d, want %d; output:\n%s",
					code, killpoint.KillExitCode, p.Tail(2000))
			}

			// Reincarnate from the surviving store, unarmed.
			r := StartNode(t, bin, opts)
			r.Expect(t, reListening, 10*time.Second)
			r.Send("invoke " + capHex + " stat")
			r.Expect(t, reStatOK(tc.wantValue, tc.wantVer), 15*time.Second)
			r.Send("quit")
		})
	}
}

// TestKillpointRecoveryReincarnate kills during reincarnation itself:
// the checkpoint is decoded but the object not yet installed. The next
// (unarmed) incarnation must activate from the same record.
func TestKillpointRecoveryReincarnate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns subprocesses")
	}
	bin := Build(t)
	storeDir := t.TempDir()
	addr := FreePort(t)
	opts := NodeOpts{Node: 1, Listen: addr, StoreDir: storeDir}

	// Phase 1 (unarmed): establish durable state value 2, version 3.
	p := StartNode(t, bin, opts)
	p.Expect(t, reListening, 10*time.Second)
	p.Send("create counter")
	capHex := p.Expect(t, reCap, 10*time.Second)
	p.Send("checkpoint " + capHex)
	p.Expect(t, reCkptV1, 10*time.Second)
	for i := 1; i <= 2; i++ {
		p.Send("invoke " + capHex + " incdur")
		p.Expect(t, reIncdurOK(i), 10*time.Second)
	}
	p.Kill(t) // object is passive in the store

	// Phase 2 (armed): the first invocation reincarnates and dies at
	// the pre-install boundary.
	armed := opts
	armed.Env = []string{killpoint.EnvPoint + "=" + string(killpoint.ReincarnatePreInstall)}
	q := StartNode(t, bin, armed)
	q.Expect(t, reArmed, 10*time.Second)
	q.Expect(t, reListening, 10*time.Second)
	q.Send("invoke " + capHex + " stat")
	if code := q.WaitExit(t, 15*time.Second); code != killpoint.KillExitCode {
		t.Fatalf("armed node exited with code %d, want %d; output:\n%s",
			code, killpoint.KillExitCode, q.Tail(2000))
	}

	// Phase 3 (unarmed): the interrupted reincarnation consumed
	// nothing — recovery lands on the same checkpoint.
	r := StartNode(t, bin, opts)
	r.Expect(t, reListening, 10*time.Second)
	r.Send("invoke " + capHex + " stat")
	r.Expect(t, reStatOK(2, 3), 15*time.Second)
	r.Send("quit")
}
