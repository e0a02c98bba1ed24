// Package killpoint is the whitebox half of the crash harness: named
// crash boundaries compiled into the kernel's durability paths.
//
// The paper's recovery story — "following a node failure, if an
// invocation is received, the object will be reincarnated from the
// state that existed at the time the most recent checkpoint was
// executed" — is only trustworthy if a node can die at *every*
// instruction boundary of checkpoint, passivate, move and
// reincarnation and still recover. Killpoints make those boundaries
// addressable: kernel code calls Hit("checkpoint.pre-sync") at each
// one, and a test (or a child process armed through the environment)
// chooses exactly which boundary kills it, turning "crash at a bad
// moment" from luck into a table entry.
//
// Hit is a single atomic load when the registry is inert, so shipping
// the killpoints in production builds costs nothing; there is no build
// tag to forget.
package killpoint

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Point names one crash boundary in the kernel.
type Point string

// The kernel's registered crash boundaries, in lifecycle order.
const (
	// CheckpointPreSync fires before a checkpoint record is written to
	// the store: a kill here must leave the previous checkpoint intact.
	CheckpointPreSync Point = "checkpoint.pre-sync"
	// CheckpointPostSync fires after the checkpoint is durable but
	// before the caller learns of it: a kill here loses the
	// acknowledgment, never the data.
	CheckpointPostSync Point = "checkpoint.post-sync"
	// PassivatePreRelease fires between a passivation's checkpoint and
	// the release of active state.
	PassivatePreRelease Point = "passivate.pre-release"
	// MovePreShip fires after a move has quiesced the object but
	// before anything about the move is durable: a kill here must
	// recover as if the move was never attempted.
	MovePreShip Point = "move.pre-ship"
	// MoveIntentDurable fires after the move-intent record is durable
	// but before the representation leaves the node: a kill here leaves
	// an intent whose destination never installed, and recovery must
	// roll the move back.
	MoveIntentDurable Point = "move.intent-durable"
	// MovePreCommit fires after the destination acknowledged the
	// shipment but before the old home commits (intent delete,
	// forwarding pointer, store delete): a kill here leaves an intent
	// whose destination holds the object, and recovery must roll the
	// move forward.
	MovePreCommit Point = "move.pre-commit"
	// MovePostCommit fires after the move has fully committed.
	MovePostCommit Point = "move.post-commit"
	// MoveResolve fires when recovery picks up a surviving move intent,
	// before the destination probe: a kill here must leave the intent
	// intact for the next incarnation.
	MoveResolve Point = "move.resolve"
	// MoveResolveCommit fires after a probe found the object installed
	// at the destination but before the roll-forward deletes the local
	// record and intent.
	MoveResolveCommit Point = "move.resolve-commit"
	// MoveResolveRollback fires after a probe found the destination
	// without the object but before the rollback deletes the intent.
	MoveResolveRollback Point = "move.resolve-rollback"
	// ReincarnatePreInstall fires after a checkpoint has been read and
	// decoded but before the reincarnated object is installed.
	ReincarnatePreInstall Point = "reincarnate.pre-install"
	// ClaimGranted fires after every other checksite granted a claim but
	// before the claimant writes its home record: a kill here must leave
	// the claim to be made again, and granted again.
	ClaimGranted Point = "claim.granted"
)

// Points lists every point the kernel compiles in, in lifecycle order.
func Points() []Point {
	return []Point{
		CheckpointPreSync, CheckpointPostSync,
		PassivatePreRelease,
		MovePreShip, MoveIntentDurable, MovePreCommit, MovePostCommit,
		MoveResolve, MoveResolveCommit, MoveResolveRollback,
		ReincarnatePreInstall, ClaimGranted,
	}
}

// Env variable names for blackbox arming (see ArmFromEnv).
const (
	// EnvPoint names the point to arm; its presence arms the process.
	EnvPoint = "EDEN_KILLPOINT"
	// EnvAfter is the number of hits to let pass before firing
	// (default 0: fire on the first hit).
	EnvAfter = "EDEN_KILLPOINT_AFTER"
)

// KillExitCode is the exit code of a process killed at an armed point
// (137 = 128+SIGKILL, so a crash-loop parent treats a killpoint death
// and a real SIGKILL identically).
const KillExitCode = 137

type state struct {
	hits  uint64
	armed bool
	after int // hits to let pass before firing
	fn    func(Point)
}

var (
	// active gates Hit: false means the whole package is a no-op
	// (nothing armed, nothing counted).
	active atomic.Bool

	mu  sync.Mutex
	reg = make(map[Point]*state)
	log []Point // hit order while active, for coverage sweeps
)

// maxLog bounds the hit-order log; sweeps need order, not history.
const maxLog = 4096

// Hit marks one crossing of a crash boundary. It is a no-op (one
// atomic load) unless the registry has been armed or observed. When
// the point is armed and its pass-count is exhausted, the armed
// function runs — by default one that terminates the process
// abruptly, as a crash would.
func Hit(p Point) {
	if !active.Load() {
		return
	}
	hit(p)
}

func hit(p Point) {
	mu.Lock()
	st := reg[p]
	if st == nil {
		st = &state{}
		reg[p] = st
	}
	st.hits++
	if len(log) < maxLog {
		log = append(log, p)
	}
	var fire func(Point)
	if st.armed {
		if st.after > 0 {
			st.after--
		} else {
			fire = st.fn
			st.armed = false // one-shot: the "crash" happens once
		}
	}
	mu.Unlock()
	if fire != nil {
		fire(p)
	}
}

// Arm makes the point fire fn on its (after+1)th hit. A nil fn
// installs Kill, the abrupt process exit. Arming is one-shot: once
// fired, the point reverts to counting only.
//
// fn runs with no killpoint lock held, but possibly inside kernel
// critical sections (reincarnation holds the kernel's activation
// lock); a test fn must not call back into the kernel.
func Arm(p Point, after int, fn func(Point)) {
	if fn == nil {
		fn = Kill
	}
	mu.Lock()
	st := reg[p]
	if st == nil {
		st = &state{}
		reg[p] = st
	}
	st.armed = true
	st.after = after
	st.fn = fn
	mu.Unlock()
	active.Store(true)
}

// Observe enables hit counting without arming anything, for coverage
// sweeps that assert every boundary fires.
func Observe() { active.Store(true) }

// Disarm removes any armed action from the point (its hit count
// survives).
func Disarm(p Point) {
	mu.Lock()
	if st := reg[p]; st != nil {
		st.armed = false
		st.fn = nil
	}
	mu.Unlock()
}

// Reset returns the package to its inert zero state: nothing armed,
// all counters and the hit log cleared.
func Reset() {
	active.Store(false)
	mu.Lock()
	reg = make(map[Point]*state)
	log = nil
	mu.Unlock()
}

// Hits returns how many times the point has been crossed while the
// registry was active.
func Hits(p Point) uint64 {
	mu.Lock()
	defer mu.Unlock()
	if st := reg[p]; st != nil {
		return st.hits
	}
	return 0
}

// Log returns the order in which points were crossed while active.
func Log() []Point {
	mu.Lock()
	defer mu.Unlock()
	return append([]Point(nil), log...)
}

// Counters snapshots every point's hit count, keyed by point name —
// the shape a metrics endpoint serves.
func Counters() map[string]uint64 {
	mu.Lock()
	defer mu.Unlock()
	out := make(map[string]uint64, len(reg))
	for p, st := range reg {
		out[string(p)] = st.hits
	}
	return out
}

// Kill terminates the process abruptly, skipping deferred functions —
// the closest a process can come to being SIGKILLed by itself. It is
// the default armed action.
func Kill(p Point) {
	fmt.Fprintf(os.Stderr, "killpoint: dying at %s\n", p)
	os.Exit(KillExitCode)
}

// ArmFromEnv arms the point named by $EDEN_KILLPOINT (letting
// $EDEN_KILLPOINT_AFTER hits pass first) with the Kill action, and
// reports whether anything was armed. Blackbox crash harnesses use it
// to plant a deterministic death in a child process without a special
// build.
func ArmFromEnv() (Point, bool) {
	name := os.Getenv(EnvPoint)
	if name == "" {
		return "", false
	}
	after := 0
	if s := os.Getenv(EnvAfter); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			after = n
		}
	}
	p := Point(name)
	Arm(p, after, nil)
	return p, true
}

// String returns a stable one-line summary of hit counts, for
// diagnostics and artifacts.
func String() string {
	c := Counters()
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", n, c[n])
	}
	return out
}
