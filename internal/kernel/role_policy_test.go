package kernel

// TestRolePolicy checks the role policy exhaustively at small scope. It
// composes three nodes around one object: each node is its store's record
// and move intent (what a crash keeps), its role state, its incarnation,
// the store writes a move step or a granted claim has yet to make, and the
// operations it waits on, and the nodes talk through a multiset
// of messages in flight that may be delivered, dropped or duplicated;
// each link delivers in the order it was sent in, as the transports do and
// as a kernel serves checkpoint ships, claims and destroys, so a duplicate
// arrives right behind its original. The nodes
// decide only through roleStep, judgeRole and moveFence, and apply their
// effects as the kernel does: a move step's or a granted claim's store
// writes one at a time,
// each a step of its own that other steps may precede, a crash may
// forestall and the store may fail. Breadth-first search with state hashing
// reaches every state within the scope and checks the invariants after
// every step:
//
//   - at most one node serves the object as its home;
//   - a node probes a move's destination only while no probe it sent
//     since its boot, or the answer to one, is in flight, and never for
//     an intent beside the forward its commit wrote;
//   - once every node a destroy was shipped to has acknowledged it, no
//     node serves the object, and once nothing is in flight, none keeps
//     a backup of it;
//   - an acknowledged checkpoint is held, when acknowledged, by every node
//     its policy names (the object's policy, as its last checkpoint wrote
//     it), and some node keeps a record at least as new until the object
//     is destroyed;
//   - with nothing in flight, no answer due and no claim to make, every
//     node other than the home that holds a role entry, or a record other
//     than a forward, is one of the home's checksites or ex-checksites,
//     and the home holds no shadow;
//   - with every node up, no message but an invalidation lost, and at
//     most one crash, touches bring back an object some node holds a
//     record of, and leave no node in doubt but one whose intent waits
//     for a passivation, which the model leaves out: an incarnation
//     serves.
//
// Two assumptions bound the scope. Timing is synchronous: a timeout is
// longer than a message and its answer take, so a node gives up waiting
// only when what it waits for was lost; failure detection is perfect,
// so recovery claims a backup only when no node answers for the object;
// and RecoverGrace is longer than any message or store write takes, so a
// backup's heartbeat goes stale only while no node answers for the
// object, every message sent has arrived or been lost, and no granted
// claim's home record is being written (RecoverGrace 0 breaks the last:
// TestRolePolicyGraceLapsesDuringClaim pins it). A move's messages may be
// lost or duplicated, but for the destination's answer to the live ship:
// its loss is the ack-lost ambiguity, which TestRolePolicyMoveAckLost
// pins.

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"testing"
	"time"

	"eden/internal/store"
)

const rnodes = 3 // nodes 1..rnodes

// rrec is a node's durable record of the object; v == 0 is none, unless
// it is a forward (fwd), to home, installed there at e, left at v.
type rrec struct {
	v, e        uint8
	backup, fwd bool
	home        uint8
	level       Reliability
	sites, ex   uint8 // node sets, bit n for node n
}

// holds reports whether the record holds a checkpoint of the object: it is
// there, and no forward.
func (r rrec) holds() bool { return r.v > 0 && !r.fwd }

// Message kinds.
const (
	mShip    uint8 = iota + 1 // a checkpoint ship
	mClaim                    // a claim
	mDestroy                  // a destroy
	mMove                     // a move's ship
	mAck                      // an answer to one of the above
	mInval                    // an invalidation
	mProbe                    // a probe of a move's destination
)

// rmsg is one message in flight.
type rmsg struct {
	kind, from, to uint8
	v, e           uint8
	level          Reliability
	sites, ex      uint8
	of             uint8 // mAck: the kind answered
	home           uint8 // mInval: the object's home
	ok, sup, move  bool  // mAck: granted, superseded; mInval: a move's
}

func (m rmsg) String() string {
	names := [...]string{"?", "ship", "claim", "destroy", "move", "ack", "inval", "probe"}
	s := fmt.Sprintf("%s %d->%d v%d e%d", names[m.kind], m.from, m.to, m.v, m.e)
	switch m.kind {
	case mAck:
		s += fmt.Sprintf(" of %s ok=%v sup=%v", names[m.of], m.ok, m.sup)
	case mShip, mClaim, mMove:
		s += fmt.Sprintf(" %v sites=%03b ex=%03b", m.level, m.sites, m.ex)
	}
	return s
}

// rnode is one node of the model.
type rnode struct {
	up, fresh bool
	rec       rrec
	it, ite   uint8 // the durable move intent: its destination (0: none) and epoch
	role      roleState
	held      bool // role is an entry of the node's table
	active    bool // an incarnation serves here
	v, e      uint8
	moving    uint8         // the destination of a live move whose ship or answer is in flight
	probe     bool          // a probe this incarnation sent awaits its answer
	todo      [2]effectKind // a move step's or a granted claim's store writes not made yet, in order
	// The operations the node waits on: the sites each still owes an
	// answer, and what they are about.
	ckptWait, claimWait, destroyWait uint8
	ckptV, claimV, claimE            uint8
	claimSup, destroyOK              bool
}

// rstate is one state of the model.
type rstate struct {
	n    [rnodes + 1]rnode
	msgs []rmsg // sorted
	// Ghosts: the policy the object was last given, and the one its last
	// checkpoint wrote (SetChecksite's lasts only as long as its home
	// does, until a checkpoint writes it); the newest acked checkpoint;
	// and the destroy.
	policy, durable         checksitePolicy
	acked                   uint8
	short                   uint8 // a node the policy names that lacked the acked checkpoint
	destroyed, destroyAcked bool
	lost                    bool  // a message other than an invalidation was dropped, or sent to a node that was down
	crashed                 uint8 // the crashes so far
	probes                  bool  // a node probed while a probe it sent since its boot, or the answer, was in flight
	needless                bool  // a node probed for an intent its record, the commit's forward, had settled
	// Budgets left.
	ckpts, sets, moves, destroys, crashes, claims, shadows, dups, drops, fails uint8
	// A checkpoint's invalidations move only floors and shadows: a
	// configuration without shadow reads sends none.
	inval   bool
	oneStep bool // a granted claim's home record is written in the step that grants it
}

func mask(nodes []uint32) uint8 {
	var m uint8
	for _, n := range nodes {
		m |= 1 << n
	}
	return m
}

func unmask(m uint8) []uint32 {
	var out []uint32
	for n := uint32(1); n <= rnodes; n++ {
		if m&(1<<n) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// shadows are the model's shadows, one per version: the policy reads only
// a shadow's version.
var shadows [16]*Object

func init() {
	for v := range shadows {
		shadows[v] = &Object{version: uint64(v)}
	}
}

// key appends the state's hash key to b: a lookup of string(key) in a
// map allocates nothing, so only a new state's key is copied.
func (s *rstate) key(b []byte) []byte {
	for i := 1; i <= rnodes; i++ {
		n := &s.n[i]
		r := &n.role
		var shadow uint8
		if r.shadow != nil {
			shadow = uint8(r.shadow.version)
		}
		floor := uint8(r.floor)
		if r.floor == floorDisabled {
			floor = 255
		}
		b = append(b, b2b(n.up)|b2b(n.fresh)<<1|b2b(n.rec.backup)<<2|b2b(n.held)<<3|b2b(n.active)<<4|b2b(n.claimSup)<<5|b2b(n.destroyOK)<<6|b2b(n.rec.fwd)<<7,
			n.rec.v, n.rec.e, n.rec.home, uint8(n.rec.level), n.rec.sites, n.rec.ex,
			uint8(r.policy.level), mask(r.policy.sites), mask(r.ex), uint8(r.home), uint8(r.epoch), floor, shadow, uint8(r.phase),
			n.v, n.e, n.moving, n.ckptWait, n.claimWait, n.destroyWait, n.ckptV, n.claimV, n.claimE,
			n.it, n.ite, uint8(r.intent.node), uint8(r.intent.epoch), uint8(n.todo[0]), uint8(n.todo[1]), b2b(n.probe))
	}
	for _, m := range s.msgs {
		b = append(b, m.kind, m.from, m.to, m.v, m.e, uint8(m.level), m.sites, m.ex, m.of, m.home, b2b(m.ok)|b2b(m.sup)<<1|b2b(m.move)<<2)
	}
	b = append(b, 0xff, uint8(s.policy.level), mask(s.policy.sites), uint8(s.durable.level), mask(s.durable.sites), s.acked, s.short, b2b(s.destroyed)|b2b(s.destroyAcked)<<1|b2b(s.lost)<<2|b2b(s.probes)<<3,
		s.ckpts, s.sets, s.moves, s.destroys, s.crashes, s.claims, s.shadows, s.dups, s.drops, s.fails)
	return b
}

func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// clone copies s; the messages are copied, the role states' slices are
// shared, since roleStep never writes them.
func (s *rstate) clone() *rstate {
	c := *s
	c.msgs = slices.Clone(s.msgs)
	return &c
}

// clone is s.clone made in a state the checker let go of, if it holds
// one: most successors are states seen before, and the collector need not
// sweep up every one.
func (rc *roleChecker) clone(s *rstate) *rstate {
	n := len(rc.free)
	if n == 0 {
		return s.clone()
	}
	c := rc.free[n-1]
	rc.free = rc.free[:n-1]
	msgs := c.msgs[:0]
	*c = *s
	c.msgs = append(msgs, s.msgs...)
	return c
}

// link names the channel a message travels: from one node to another.
func (m rmsg) link() int { return int(m.from)<<8 | int(m.to) }

// send puts m at the tail of its link. The messages are kept grouped by
// link, each link in the order it was sent in.
func (s *rstate) send(m rmsg) {
	s.msgs = append(s.msgs, m)
	slices.SortStableFunc(s.msgs, func(a, b rmsg) int { return cmp.Compare(a.link(), b.link()) })
}

// meta is the store's metadata of a node's record, a forward included.
func (n *rnode) meta() (store.Meta, bool) {
	if n.rec.v == 0 && !n.rec.fwd {
		return store.Meta{}, false
	}
	return store.Meta{Version: uint64(n.rec.v), Epoch: uint64(n.rec.e), Backup: n.rec.backup, Forward: n.rec.fwd,
		Home: uint32(n.rec.home), Sited: n.rec.level != RelLocal || n.rec.sites != 0 || n.rec.ex != 0}, true
}

// judge is the node's verdict on its record.
func (n *rnode) judge() verdict {
	m, here := n.meta()
	return judgeRole(n.role, n.held, here, m)
}

// answers reports whether the node answers a locate as the object's home.
func (n *rnode) answers() bool {
	return n.up && (n.active || n.judge().role == ownRecord)
}

// serving reports whether the node serves the object as its home: a
// move's source answers locates, but holds its calls until the move
// commits or its abort is durable, or has failed to be.
func (n *rnode) serving() bool {
	return n.answers() && n.moving == 0 && !(n.held && n.role.intent.node != 0 && !n.kept())
}

// kept reports whether the node serves the object with an intent whose
// deletion failed after a live abort: the kernel settles it once the
// incarnation passivates (which the model leaves out), or after a boot.
func (n *rnode) kept() bool {
	return n.active && n.held && n.role.intent.node != 0 && n.role.phase == settleNeeded
}

// later queues the store writes of a move step, fx, at node i: the node
// makes them one at a time, each a step of its own (write).
func (s *rstate) later(i int, fx []roleEffect) {
	n := &s.n[i]
	for _, e := range fx {
		if e.kind == fxPut || e.kind == fxDeleteIntent {
			n.todo[slices.Index(n.todo[:], 0)] = e.kind
		}
	}
}

// write makes node i's next queued store write, or fails it, which skips
// the writes queued after it. A move step's Put is the commit's forward to
// its intent's destination, at the version that left (a rolled-forward
// node's incarnation is gone: its record's), ordered by epoch against the
// record it replaces; a stale one fails, as applyRole fails it. The
// intent's deletion, the last of a move step's writes, steps the policy
// as applyRole does: evMoveCommitted once durable, else evIntentKept.
func (s *rstate) write(i int, fail bool) {
	n := &s.n[i]
	kind := n.todo[0]
	n.todo = [2]effectKind{n.todo[1]}
	if fail {
		s.fails--
	}
	if kind == fxPutHome {
		s.putHome(i, fail)
		return
	}
	if kind == fxPut && !fail {
		it := n.role.intent
		if n.rec.v > 0 || n.rec.fwd {
			fail = normE(n.rec.e) >= uint8(it.epoch)
		}
		if !fail {
			n.rec = rrec{fwd: true, v: max(n.v, n.rec.v), e: uint8(it.epoch), home: uint8(it.node)}
			return
		}
	}
	if fail {
		n.todo = [2]effectKind{}
		s.step(i, roleEvent{kind: evIntentKept})
		return
	}
	n.it, n.ite = 0, 0
	m, here := n.meta()
	s.step(i, roleEvent{kind: evMoveCommitted, record: here, rec: m})
}

// moved sends node i's move invalidations: the object moved to its
// intent's destination.
func (s *rstate) moved(i int) {
	to := int(s.n[i].role.intent.node)
	for j := 1; j <= rnodes; j++ {
		if j != i && j != to {
			s.send(rmsg{kind: mInval, from: uint8(i), to: uint8(j), move: true, home: uint8(to)})
		}
	}
}

// awaitsProbe reports whether a probe of node i's, or an answer to one,
// is in flight.
func (s *rstate) awaitsProbe(i int) bool {
	return slices.ContainsFunc(s.msgs, func(m rmsg) bool {
		return m.kind == mProbe && int(m.from) == i || m.kind == mAck && m.of == mProbe && int(m.to) == i
	})
}

// step applies ev to node i's role as the kernel's stepRoleLocked does.
func (s *rstate) step(i int, ev roleEvent) []roleEffect {
	n := &s.n[i]
	ev.self = uint32(i)
	var st roleState
	if n.held {
		st = n.role
	}
	st, fx := roleStep(st, ev, nil)
	n.role, n.held = st, st.held()
	if !n.held {
		n.role = roleState{}
	}
	return fx
}

func has(fx []roleEffect, kind effectKind) bool {
	return slices.ContainsFunc(fx, func(e roleEffect) bool { return e.kind == kind })
}

// incarnate makes node i's incarnation from its own record, as a touch
// does.
func (s *rstate) incarnate(i int) {
	n := &s.n[i]
	if !n.active {
		n.active, n.v, n.e = true, n.rec.v, normE(n.rec.e)
	}
}

func normE(e uint8) uint8 { return uint8(normEpoch(uint64(e))) }

// roleChecker explores one configuration.
type roleChecker struct {
	t       *testing.T
	alt     checksitePolicy // the policy SetChecksite may choose
	ackLoss bool            // the answer to a live move's ship may be lost
	lapse   bool            // a backup's grace may elapse while a granted claim's home record is being written
	// seen holds a 128-bit hash of each state's key, not the key (hash
	// compaction): a map without pointers costs the collector nothing,
	// and two of 10⁷ states share a hash with odds below 10⁻²⁴.
	seen    map[[2]uint64]struct{}
	seeds   [2]maphash.Seed
	free    []*rstate // states explored, or seen before: clone reuses them
	steps   int
	depth   int
	failed  bool
	expect  bool   // a violation is expected: record it, do not report it
	found   string // the violation found, with expect
	started time.Time
}

// rev is one event of the model, named only for a failure report.
type rev struct {
	what  string
	i, to int
	m     rmsg
}

func (e rev) String() string {
	switch {
	case e.m.kind != 0:
		return fmt.Sprint(e.what, " ", e.m)
	case e.to != 0:
		return fmt.Sprint(e.what, " ", e.i, " -> ", e.to)
	}
	return fmt.Sprint(e.what, " ", e.i)
}

// rtrace is the event path to a state, for a failure report.
type rtrace struct {
	ev    rev
	prev  *rtrace
	depth int
}

func (tr *rtrace) String() string {
	var evs []string
	for ; tr != nil; tr = tr.prev {
		evs = append(evs, tr.ev.String())
	}
	slices.Reverse(evs)
	return strings.Join(evs, "\n\t")
}

type ritem struct {
	s  *rstate
	tr *rtrace
}

func (rc *roleChecker) run(init *rstate) int {
	rc.seeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}
	rc.seen[rc.hash(init.key(nil))] = struct{}{}
	var key []byte
	queue := []ritem{{init, &rtrace{ev: rev{what: "create at", i: 1}}}}
	for len(queue) > 0 && !rc.failed {
		it := queue[0]
		queue[0], queue = ritem{}, queue[1:] // the collector may take a state once explored
		rc.depth = max(rc.depth, it.tr.depth)
		rc.successors(it.s, func(ev rev, next *rstate) {
			rc.steps++
			if rc.failed {
				return
			}
			// A state seen before was checked then: only a new one is
			// checked, and only a new one gets a trace.
			key = next.key(key[:0])
			h := rc.hash(key)
			if _, ok := rc.seen[h]; ok {
				rc.free = append(rc.free, next)
				return
			}
			tr := &rtrace{ev: ev, prev: it.tr, depth: it.tr.depth + 1}
			if rc.check(next, tr) {
				rc.seen[h] = struct{}{}
				queue = append(queue, ritem{next, tr})
			}
		})
		rc.free = append(rc.free, it.s)
	}
	return len(rc.seen)
}

// hash is a state key's entry in the seen set.
func (rc *roleChecker) hash(key []byte) [2]uint64 {
	return [2]uint64{maphash.Bytes(rc.seeds[0], key), maphash.Bytes(rc.seeds[1], key)}
}

func (rc *roleChecker) fail(tr *rtrace, s *rstate, invariant string, args ...any) bool {
	rc.failed = true
	rc.found = fmt.Sprintf("%s at depth %d, after %d states, %d steps, %v:\n\t%s", fmt.Sprint(append([]any{invariant}, args...)...),
		tr.depth, len(rc.seen), rc.steps, time.Since(rc.started).Round(time.Millisecond), tr)
	if !rc.expect {
		rc.t.Errorf("%s\nstate: %s", rc.found, s)
	}
	return false
}

func (s *rstate) String() string {
	var b strings.Builder
	for i := 1; i <= rnodes; i++ {
		n := &s.n[i]
		fmt.Fprintf(&b, "\n\tnode %d: up=%v fresh=%v active=%v v%d e%d rec=%+v role=%+v held=%v", i, n.up, n.fresh, n.active, n.v, n.e, n.rec, n.role, n.held)
	}
	for _, m := range s.msgs {
		fmt.Fprintf(&b, "\n\tmsg %v", m)
	}
	return b.String()
}

// check asserts the invariants on a state reached by tr.
func (rc *roleChecker) check(s *rstate, tr *rtrace) bool {
	var homes []int
	for i := 1; i <= rnodes; i++ {
		if s.n[i].serving() {
			homes = append(homes, i)
		}
	}
	if len(homes) > 1 {
		return rc.fail(tr, s, "two homes: ", homes)
	}
	if s.short != 0 {
		return rc.fail(tr, s, "a checkpoint acked without node ", s.short, ", which its policy names")
	}
	if s.probes {
		return rc.fail(tr, s, "two probes in flight for one intent")
	}
	if s.needless {
		return rc.fail(tr, s, "a probe for an intent beside its commit's forward")
	}
	if s.destroyAcked && len(homes) > 0 {
		return rc.fail(tr, s, "a destroyed object answers at node ", homes[0])
	}
	if s.acked > 0 && !s.destroyed {
		newest := uint8(0)
		for i := 1; i <= rnodes; i++ {
			if s.n[i].rec.holds() {
				newest = max(newest, s.n[i].rec.v)
			}
		}
		if newest < s.acked {
			return rc.fail(tr, s, "the acked checkpoint is lost: ", s.acked)
		}
	}
	if len(s.msgs) > 0 {
		return true
	}
	for i := 1; i <= rnodes; i++ {
		n := &s.n[i]
		if n.ckptWait|n.claimWait|n.destroyWait != 0 || n.moving != 0 || n.todo[0] != 0 || n.probe {
			return true // not quiescent: an answer or a store write is due
		}
	}
	if s.destroyAcked {
		for i := 1; i <= rnodes; i++ {
			if n := &s.n[i]; n.rec.backup || n.held && n.role.home != 0 {
				return rc.fail(tr, s, "node ", i, " keeps a backup of the destroyed object")
			}
		}
	}
	due := false // a settlement the next touch makes
	for i := 1; i <= rnodes; i++ {
		n := &s.n[i]
		due = due || n.held && (n.role.phase != settleNone || n.role.intent.node != 0)
	}
	if (due || len(homes) == 0) && !s.destroyed && !s.lost && s.crashed <= 1 && s.recorded() {
		if why := s.settles(); why != "" {
			return rc.fail(tr, s, "with every node up, ", why)
		}
	}
	if due || len(homes) == 0 {
		return true
	}
	h := &s.n[homes[0]]
	if h.held && h.role.shadow != nil {
		return rc.fail(tr, s, "the home holds a shadow")
	}
	accounted := mask(h.role.siblings(uint32(homes[0])))
	for i := 1; i <= rnodes; i++ {
		n := &s.n[i]
		if i == homes[0] || !n.up || !n.held && !n.rec.holds() {
			continue
		}
		if accounted&(1<<i) == 0 {
			return rc.fail(tr, s, "node ", i, " holds a role or a record its home does not account for")
		}
	}
	return true
}

// recorded reports whether every node is up and some node holds a record
// of the object.
func (s *rstate) recorded() bool {
	some := false
	for i := 1; i <= rnodes; i++ {
		if !s.n[i].up {
			return false
		}
		some = some || s.n[i].rec.holds()
	}
	return some
}

// settles runs touches in s: each node in turn, for a few rounds, is
// touched — a doubt is settled, a backup claimed while no node serves the
// object, the home's heartbeat having gone stale — and every message is
// delivered, every store write made, and a probe that went unanswered
// times out. It says what is wrong after: no node serves the object, or a
// node is left in doubt.
func (s *rstate) settles() string {
	next := s.clone()
	next.claims = 255
	for round := 0; round < rnodes; round++ {
		for i := 1; i <= rnodes; i++ {
			n := &next.n[i]
			n.fresh = false
			if v := n.judge(); !n.active && n.todo[0] == 0 && (v.role == inDoubt || v.role == backupRecord && !next.served()) {
				next.settle(i)
			}
			for more := true; more; {
				more = len(next.msgs) > 0
				if more {
					m := next.msgs[0]
					next.msgs = next.msgs[1:]
					next.deliver(m)
				}
				for j := 1; j <= rnodes; j++ {
					if next.n[j].todo[0] != 0 {
						next.write(j, false)
						more = true
					}
					if next.n[j].probe && !next.awaited(j) {
						next.timeout(j) // the probe reached a node that could not answer
						more = true
					}
				}
			}
		}
	}
	if !next.served() {
		return "no touch brings the object back"
	}
	for i := 1; i <= rnodes; i++ {
		if n := &next.n[i]; n.held && (n.role.phase != settleNone || n.role.intent.node != 0) && !n.kept() {
			return fmt.Sprint("touches leave node ", i, " in doubt")
		}
	}
	return ""
}

// successors calls visit with every state one event from s.
func (rc *roleChecker) successors(s *rstate, visit func(rev, *rstate)) {
	for i := 1; i <= rnodes; i++ {
		n := &s.n[i]
		if !n.up {
			next := rc.clone(s)
			next.restart(i)
			visit(rev{what: "restart", i: i}, next)
			continue
		}
		if s.crashes > 0 {
			next := rc.clone(s)
			next.crash(i)
			visit(rev{what: "crash", i: i}, next)
		}
		if n.serving() && n.ckptWait|n.destroyWait == 0 {
			if s.ckpts > 0 {
				next := rc.clone(s)
				next.checkpoint(i)
				visit(rev{what: "checkpoint at", i: i}, next)
			}
			if s.sets > 0 {
				next := rc.clone(s)
				next.sets--
				next.policy = rc.alt
				next.step(i, roleEvent{kind: evPolicy, policy: rc.alt})
				visit(rev{what: "SetChecksite (the other policy) at", i: i}, next)
			}
			if s.destroys > 0 {
				next := rc.clone(s)
				next.destroy(i)
				visit(rev{what: "destroy at", i: i}, next)
			}
			for to := 1; to <= rnodes && s.moves > 0; to++ {
				if to != i && s.n[to].up {
					next := rc.clone(s)
					next.moves--
					next.incarnate(i)
					m := &next.n[i]
					m.it, m.ite, m.moving = uint8(to), m.e+1, uint8(to)
					next.step(i, roleEvent{kind: evMoveStart, from: uint32(to), epoch: uint64(m.ite)})
					next.send(rmsg{kind: mMove, from: uint8(i), to: uint8(to), v: m.v, e: m.ite,
						level: n.role.policy.level, sites: mask(n.role.policy.sites), ex: mask(n.role.ex)})
					visit(rev{what: "move", i: i, to: to}, next)
				}
			}
		}
		if n.todo[0] != 0 {
			next := rc.clone(s)
			next.write(i, false)
			visit(rev{what: "store write at", i: i}, next)
			if s.fails > 0 {
				next = rc.clone(s)
				next.write(i, true)
				visit(rev{what: "store write fails at", i: i}, next)
			}
		}
		// A touch: a doubt is settled, and a backup whose home's heartbeat
		// went stale is claimed; not while the last settlement's writes are
		// due, since the kernel runs one settlement per object at a time.
		switch v := n.judge(); {
		case s.claims > 0 && n.claimWait == 0 && n.todo[0] == 0 && !n.active && (v.role == inDoubt || v.role == backupRecord && !n.fresh && !s.served()):
			next := rc.clone(s)
			next.settle(i)
			visit(rev{what: "settle at", i: i}, next)
		case s.shadows > 0 && v.role == backupRecord && v.aboveFloor:
			next := rc.clone(s)
			next.shadows--
			next.step(i, roleEvent{kind: evShadow, shadow: shadows[n.rec.v]})
			visit(rev{what: "shadow read at", i: i}, next)
		}
		if n.held && n.role.home != 0 && n.fresh && len(s.msgs) == 0 && !s.served() && (rc.lapse || !s.granted()) {
			next := rc.clone(s)
			next.n[i].fresh = false
			visit(rev{what: "grace elapses at", i: i}, next)
		}
		if (n.claimWait|n.ckptWait|n.destroyWait != 0 || n.moving != 0 || n.probe) && !s.awaited(i) {
			next := rc.clone(s)
			next.timeout(i)
			visit(rev{what: "timeout at", i: i}, next)
		}
	}
	for j, m := range s.msgs {
		first := j == 0 || s.msgs[j-1].link() != m.link()
		reliable := m.kind == mAck && m.of == mMove && !rc.ackLoss
		if first {
			next := rc.clone(s)
			next.msgs = slices.Delete(next.msgs, j, j+1)
			next.deliver(m)
			visit(rev{what: "deliver", m: m}, next)
			if s.dups > 0 && !reliable {
				// A duplicate travels right behind its original.
				next = rc.clone(next)
				next.dups--
				next.deliver(m)
				visit(rev{what: "deliver twice", m: m}, next)
			}
		}
		if s.drops > 0 && !reliable && (first || m != s.msgs[j-1]) {
			next := rc.clone(s)
			next.drops--
			next.lost = next.lost || m.kind != mInval
			next.msgs = slices.Delete(next.msgs, j, j+1)
			visit(rev{what: "drop", m: m}, next)
		}
	}
}

// served reports whether some node serves the object: failure recovery
// runs only when no home answers a locate.
func (s *rstate) served() bool {
	for i := 1; i <= rnodes; i++ {
		if s.n[i].answers() {
			return true
		}
	}
	return false
}

// granted reports whether some node's granted claim has its home record
// yet to write: the grant that made a backup fresh came just before.
func (s *rstate) granted() bool {
	for i := 1; i <= rnodes; i++ {
		if s.n[i].role.phase == settleGranted {
			return true
		}
	}
	return false
}

// awaited reports whether a message node i sent, or an answer to it, is
// in flight: a timeout is longer than a message and its answer take, so
// a node gives up waiting only when what it waits for was lost.
func (s *rstate) awaited(i int) bool {
	return slices.ContainsFunc(s.msgs, func(m rmsg) bool {
		return m.kind != mInval && (int(m.from) == i || m.kind == mAck && int(m.to) == i)
	})
}

func (s *rstate) crash(i int) {
	s.crashes--
	s.crashed++
	n := &s.n[i]
	if n.held && n.role.home == 0 {
		s.policy = s.durable // a SetChecksite no checkpoint wrote is lost
	}
	s.n[i] = rnode{rec: n.rec, it: n.it, ite: n.ite}
}

// restart boots node i: its boot scan registers its record and its
// intent, as bootScan does.
func (s *rstate) restart(i int) {
	n := &s.n[i]
	n.up = true
	if m, ok := n.meta(); ok && (m.Backup || m.Sited) {
		s.step(i, roleEvent{kind: evBoot, record: true, rec: m})
		n.fresh = m.Backup // the boot is the heartbeat of a backup no ship reached
	}
	if n.it != 0 {
		s.step(i, roleEvent{kind: evBoot, from: uint32(n.it), epoch: uint64(n.ite)})
	}
}

func (s *rstate) checkpoint(i int) {
	s.ckpts--
	s.durable = s.policy
	s.incarnate(i)
	n := &s.n[i]
	n.v++
	fx := s.step(i, roleEvent{kind: evCheckpoint})
	n.ckptV, n.ckptWait = n.v, 0
	for _, e := range fx {
		switch e.kind {
		case fxPut:
			s.put(i, rrec{v: n.v, e: n.e, level: n.role.policy.level, sites: mask(n.role.policy.sites), ex: mask(n.role.ex)})
		case fxShip:
			n.ckptWait |= 1 << e.site
			s.send(rmsg{kind: mShip, from: uint8(i), to: uint8(e.site), v: n.v, e: n.e,
				level: n.role.policy.level, sites: mask(n.role.policy.sites), ex: mask(n.role.ex)})
		}
	}
	if n.ckptWait == 0 {
		s.ackCheckpoint(i)
	}
}

// put writes rec to node i's store as store.Put does: a version that
// does not advance the stored one is stale, and tolerated.
func (s *rstate) put(i int, rec rrec) {
	if rec.v > s.n[i].rec.v {
		s.n[i].rec = rec
	}
}

// ackCheckpoint: every site acknowledged node i's checkpoint. Every node
// its policy names must hold it now.
func (s *rstate) ackCheckpoint(i int) {
	n := &s.n[i]
	s.acked = max(s.acked, n.ckptV)
	local, remote := s.durable.targets(uint32(i))
	if local && n.rec.v < n.ckptV {
		s.short = uint8(i)
	}
	for _, j := range remote {
		if s.n[j].rec.v < n.ckptV {
			s.short = uint8(j)
		}
	}
	for j := 1; j <= rnodes && s.inval; j++ {
		if j != i {
			s.send(rmsg{kind: mInval, from: uint8(i), to: uint8(j), v: n.ckptV, home: uint8(i)})
		}
	}
}

func (s *rstate) destroy(i int) {
	s.destroys--
	s.incarnate(i)
	n := &s.n[i]
	fx := s.step(i, roleEvent{kind: evDestroy})
	n.active = false
	s.destroyed = true
	n.destroyWait, n.destroyOK = 0, true
	for _, e := range fx {
		switch e.kind {
		case fxDelete:
			n.rec = rrec{}
		case fxDestroy:
			n.destroyWait |= 1 << e.site
			s.send(rmsg{kind: mDestroy, from: uint8(i), to: uint8(e.site), e: normE(n.e)})
		}
	}
	if n.destroyWait == 0 {
		s.destroyAcked = true
	}
}

// settle is a touch that settles node i's doubt: it probes a move's
// destination, or claims the record.
func (s *rstate) settle(i int) {
	n := &s.n[i]
	rec := n.rec
	m, _ := n.meta()
	probing := n.probe && s.awaitsProbe(i) // this incarnation's probe is out
	fx := s.step(i, roleEvent{kind: evSettle, record: rec.holds(), rec: m, fresh: n.role.home != 0 && n.fresh,
		policy: checksitePolicy{level: rec.level, sites: unmask(rec.sites)}, ex: unmask(rec.ex)})
	if len(fx) == 0 {
		return
	}
	s.claims--
	if has(fx, fxDeleteIntent) {
		s.later(i, fx) // the forward settles the intent beside it
		return
	}
	if has(fx, fxProbe) {
		s.probes = s.probes || probing
		s.needless = s.needless || m.Forward && normEpoch(m.Epoch) >= n.role.intent.epoch
		n.probe = true
		s.send(rmsg{kind: mProbe, from: uint8(i), to: uint8(n.role.intent.node), e: uint8(n.role.intent.epoch)})
		return
	}
	n.claimV, n.claimE, n.claimSup = rec.v+1, normE(rec.e)+1, false
	for _, e := range fx {
		if e.kind == fxClaim {
			n.claimWait |= 1 << e.site
			s.send(rmsg{kind: mClaim, from: uint8(i), to: uint8(e.site), v: n.claimV, e: n.claimE,
				level: rec.level, sites: rec.sites, ex: rec.ex})
		}
	}
	s.claimDone(i, fx)
}

// claimDone applies a claim's outcome, fx, at node i: a granted claim's
// home record is written in a step of its own (write), unless oneStep.
func (s *rstate) claimDone(i int, fx []roleEffect) {
	n := &s.n[i]
	for _, e := range fx {
		switch {
		case e.kind == fxPutHome && !s.oneStep:
			n.todo[slices.Index(n.todo[:], 0)] = fxPutHome
		case e.kind == fxPutHome:
			s.putHome(i, false)
		case e.kind == fxDelete:
			n.rec = rrec{}
		}
	}
}

// putHome writes the home record node i's granted claim makes, or fails
// it, and steps the policy with the outcome, as applyRole does; a stale
// record is not written.
func (s *rstate) putHome(i int, fail bool) {
	n := &s.n[i]
	rec := rrec{v: n.claimV, e: n.claimE, level: n.role.policy.level, sites: mask(n.role.policy.sites), ex: mask(n.role.ex)}
	if fail || rec.v <= n.rec.v {
		s.step(i, roleEvent{kind: evHomeUnwritten})
		return
	}
	n.rec = rec
	s.step(i, roleEvent{kind: evHomeWritten})
}

func (s *rstate) timeout(i int) {
	n := &s.n[i]
	if n.moving != 0 {
		n.moving = 0 // the move's ship, or its answer, was lost: abort
		s.later(i, s.step(i, roleEvent{kind: evMoveAborted}))
	}
	if n.probe {
		n.probe = false
		s.step(i, roleEvent{kind: evProbeAnswered}) // no answer: in doubt
	}
	if n.claimWait != 0 {
		n.claimWait = 0
		s.claimDone(i, s.step(i, roleEvent{kind: evClaimDone, superseded: n.claimSup}))
	}
	n.ckptWait, n.destroyWait = 0, 0
}

func (s *rstate) deliver(m rmsg) {
	i := int(m.to)
	n := &s.n[i]
	if !n.up {
		s.lost = true // delivery to a node that is down loses the message
		return
	}
	ack := rmsg{kind: mAck, from: m.to, to: m.from, of: m.kind, v: m.v, e: m.e, ok: true}
	switch m.kind {
	case mShip, mClaim:
		rm, here := n.meta()
		if n.active {
			rm.Epoch = uint64(n.e)
		}
		fx := s.step(i, roleEvent{kind: evShip, from: uint32(m.from), version: uint64(m.v), epoch: uint64(normE(m.e)),
			policy: checksitePolicy{level: m.level, sites: unmask(m.sites)}, ex: unmask(m.ex), claim: m.kind == mClaim,
			serving: n.active || n.judge().role == ownRecord, fresh: n.held && n.role.home != 0 && n.fresh,
			record: here, rec: rm})
		if r := slices.IndexFunc(fx, roleEffect.refuses); r >= 0 {
			ack.ok, ack.sup = false, fx[r].err == errSuperseded
		} else if has(fx, fxPut) {
			n.fresh = true
			s.put(i, rrec{v: m.v, e: m.e, backup: true, home: m.from, level: m.level, sites: m.sites, ex: m.ex})
		}
	case mDestroy:
		rm, here := n.meta()
		fx := s.step(i, roleEvent{kind: evDestroyShip, from: uint32(m.from), epoch: uint64(m.e), serving: n.active,
			record: here, rec: rm})
		if has(fx, fxRefuse) {
			ack.ok = false
		} else if has(fx, fxDelete) {
			n.rec = rrec{}
		}
	case mMove:
		var hosting uint64
		if n.active {
			hosting = uint64(n.e)
		}
		if moveFence(n.role, hosting, uint64(m.e)) != nil {
			ack.ok = false
			break
		}
		n.active, n.v, n.e = true, m.v, m.e
		rm, here := n.meta()
		fx := s.step(i, roleEvent{kind: evMoveIn, version: uint64(m.v), record: here, rec: rm,
			policy: checksitePolicy{level: m.level, sites: unmask(m.sites)}, ex: unmask(m.ex)})
		if has(fx, fxDelete) {
			n.rec = rrec{}
		}
		if has(fx, fxPut) {
			s.put(i, rrec{v: m.v, e: m.e, level: m.level, sites: m.sites, ex: m.ex})
		}
	case mProbe:
		rm, here := n.meta()
		if n.active {
			rm, here = store.Meta{Epoch: uint64(n.e)}, true
		}
		ack.ok = !has(s.step(i, roleEvent{kind: evProbe, epoch: uint64(m.e), record: here, rec: rm}), fxRefuse)
	case mInval:
		s.step(i, roleEvent{kind: evInvalidate, from: uint32(m.home), version: uint64(m.v), move: m.move})
		return
	case mAck:
		s.answer(i, m)
		return
	}
	s.send(ack)
}

// answer applies an answer to node i.
func (s *rstate) answer(i int, m rmsg) {
	n := &s.n[i]
	bit := uint8(1) << m.from
	switch m.of {
	case mShip:
		if n.ckptWait&bit == 0 || m.v != n.ckptV {
			return
		}
		if !m.ok {
			n.ckptWait = 0 // the checkpoint fails
			return
		}
		if n.ckptWait &^= bit; n.ckptWait == 0 {
			s.ackCheckpoint(i)
		}
	case mClaim:
		if n.claimWait&bit == 0 || m.e != n.claimE {
			return
		}
		n.claimWait &^= bit
		if !m.ok {
			n.claimWait = 0
			n.claimSup = n.claimSup || m.sup
			s.claimDone(i, s.step(i, roleEvent{kind: evClaimDone, superseded: n.claimSup}))
		} else if n.claimWait == 0 {
			s.claimDone(i, s.step(i, roleEvent{kind: evClaimDone, granted: true}))
		}
	case mDestroy:
		if n.destroyWait&bit == 0 {
			return
		}
		n.destroyOK = n.destroyOK && m.ok
		if n.destroyWait &^= bit; n.destroyWait == 0 && n.destroyOK {
			s.destroyAcked = true
		}
	case mMove:
		if n.moving == 0 || m.from != n.moving {
			return
		}
		n.moving = 0
		if !m.ok {
			s.later(i, s.step(i, roleEvent{kind: evMoveAborted}))
			return
		}
		// The source's commit: no longer the home.
		n.active = false
		s.later(i, s.step(i, roleEvent{kind: evMoveAcked, from: uint32(m.from), epoch: uint64(m.e)}))
		s.moved(i)
	case mProbe:
		if !n.probe || uint64(m.e) != n.role.intent.epoch {
			return
		}
		n.probe = false
		s.later(i, s.step(i, roleEvent{kind: evProbeAnswered, answered: true, installed: m.ok}))
		if m.ok {
			s.moved(i)
		}
	}
}

// roleConfig is one configuration of the checker: the policy the object
// is created with on node 1, the one SetChecksite may give it, and how
// many of each event a run may have.
type roleConfig struct {
	name                                               string
	policy, alt                                        checksitePolicy
	ckpts, sets, moves, destroys, crashes, claims, shd uint8
	dups, drops, fails                                 uint8 // fails: a move step's store writes that fail
	ackLoss                                            bool  // the answer to a live move's ship may be lost
	// lapse lets a backup's grace elapse while a granted claim's home
	// record is being written, which RecoverGrace 0 allows.
	lapse bool
	// oneStep writes a granted claim's home record in the step that grants
	// it, which hides the window before the record lands: a pin keeps the
	// depth its counterexample was found at.
	oneStep bool
}

// run explores c.
func (c roleConfig) run(t *testing.T, expect bool) *roleChecker {
	rc := &roleChecker{t: t, alt: c.alt, ackLoss: c.ackLoss, lapse: c.lapse, seen: make(map[[2]uint64]struct{}), expect: expect, started: time.Now()}
	init := &rstate{policy: c.policy, durable: c.policy, ckpts: c.ckpts, sets: c.sets, moves: c.moves, destroys: c.destroys,
		crashes: c.crashes, claims: c.claims, shadows: c.shd, dups: c.dups, drops: c.drops, fails: c.fails, inval: c.shd > 0, oneStep: c.oneStep}
	for i := 1; i <= rnodes; i++ {
		init.n[i].up = true
	}
	init.n[1].active, init.n[1].e = true, 1
	init.step(1, roleEvent{kind: evPolicy, policy: c.policy})
	rc.run(init)
	return rc
}

var roleConfigs = []roleConfig{
	{name: "two remote sites, the home fails", policy: checksitePolicy{RelRemote, []uint32{2, 3}},
		ckpts: 2, destroys: 1, crashes: 2, claims: 3, dups: 1, drops: 1},
	{name: "two remote sites, one dropped", policy: checksitePolicy{RelRemote, []uint32{2, 3}}, alt: checksitePolicy{RelRemote, []uint32{2}},
		ckpts: 2, sets: 1, destroys: 1, crashes: 1, claims: 2, dups: 1, drops: 1},
	{name: "replicated, moved", policy: checksitePolicy{RelReplicated, []uint32{2}},
		ckpts: 2, moves: 1, destroys: 1, crashes: 2, claims: 2, drops: 1},
	{name: "replicated, the home restarts", policy: checksitePolicy{RelReplicated, []uint32{2}},
		ckpts: 2, destroys: 1, crashes: 2, claims: 3, dups: 1, drops: 1},
	{name: "replicated, shadowed", policy: checksitePolicy{RelReplicated, []uint32{2}},
		ckpts: 1, moves: 1, crashes: 2, claims: 2, shd: 1, drops: 1},
	// A move back to a node the object once left: that node's forward is
	// from an earlier residency, and must not answer the probe.
	{name: "local, moved there and back", policy: checksitePolicy{RelLocal, nil},
		ckpts: 2, moves: 2, crashes: 1, claims: 1, drops: 1, fails: 1},
}

func TestRolePolicy(t *testing.T) {
	start := time.Now()
	var states, steps int
	for _, c := range roleConfigs {
		rc := c.run(t, false)
		t.Logf("%s: %d states, %d steps, depth %d, %v", c.name, len(rc.seen), rc.steps, rc.depth, time.Since(rc.started).Round(time.Millisecond))
		states += len(rc.seen)
		steps += rc.steps
		if rc.failed {
			return
		}
	}
	t.Logf("%d states, %d steps checked in %v", states, steps, time.Since(start).Round(time.Millisecond))
}

// TestRolePolicyStaleExChecksite pins a defect the policy still has: a
// checksite that a policy change dropped, and that missed the change,
// holds a record whose policy names no current checksite, so after the
// home fails it claims the object alone, from a stale checkpoint, while
// the current checksite holds a newer one. roleConfigs leave such
// changes out until a claim can learn of them (ROADMAP item 17); when
// this test fails, the defect is gone, and the configuration belongs in
// roleConfigs.
func TestRolePolicyStaleExChecksite(t *testing.T) {
	c := roleConfig{name: "replicated, moved to another site", policy: checksitePolicy{RelReplicated, []uint32{2}},
		alt: checksitePolicy{RelReplicated, []uint32{3}}, ckpts: 2, sets: 1, crashes: 1, claims: 1, oneStep: true}
	rc := c.run(t, true)
	if !rc.failed {
		t.Fatalf("no violation in %d states: the stale ex-checksite defect is fixed", len(rc.seen))
	}
	t.Logf("%s", rc.found)
}

// TestRolePolicyMoveAckLost pins the move's ack-lost ambiguity (DESIGN
// §6): the destination installs and answers, the answer is lost, and the
// source, having heard nothing, aborts and resumes service while the
// destination serves. A live abort keeps this semantics: the source
// cannot tell a lost ship from a lost answer without a probe. When this
// test fails, the ambiguity is closed, and ackLoss belongs in
// roleConfigs.
func TestRolePolicyMoveAckLost(t *testing.T) {
	pinned(t, roleConfig{name: "local, the move's answer lost", policy: checksitePolicy{RelLocal, nil},
		moves: 1, drops: 1, ackLoss: true}, "two homes")
}

// TestRolePolicyGraceLapsesDuringClaim pins a defect of RecoverGrace 0,
// DefaultConfig's value, which every System node runs with: a restarted
// home claims the object from its checksite, which grants; while the
// home's record is being written, the checksite's grace lapses and, as a
// checksite with no siblings, it claims the object alone and wins. Both
// serve. roleConfigs assume a grace longer than a store write; when this
// test fails, the defect is gone, and lapse belongs in roleConfigs.
func TestRolePolicyGraceLapsesDuringClaim(t *testing.T) {
	pinned(t, roleConfig{name: "replicated, the home restarts", policy: checksitePolicy{RelReplicated, []uint32{2}},
		ckpts: 2, destroys: 1, crashes: 2, claims: 3, dups: 1, drops: 1, lapse: true}, "two homes")
}

// TestRolePolicyMoveOnAndRestart checks the configuration that found M2:
// a destination that moved the object on, and then restarted, kept its
// forward only in memory and answered "not installed" to the probe of a
// source that died before its commit, so the source rolled back while the
// object lived on at the third node. The forward is a record now, and the
// whole configuration holds. It stays a test of its own, which CI runs
// under the race detector.
func TestRolePolicyMoveOnAndRestart(t *testing.T) {
	c := roleConfig{name: "local, moved on, both first homes crash", policy: checksitePolicy{RelLocal, nil},
		ckpts: 1, moves: 2, crashes: 2, claims: 1}
	rc := c.run(t, false)
	t.Logf("%s: %d states, %d steps, depth %d, %v", c.name, len(rc.seen), rc.steps, rc.depth, time.Since(rc.started).Round(time.Millisecond))
}

// TestRolePolicyClaimWindow checks the configuration that found the claim
// window: two checksites of a failed home claim it, and one's grants all
// come in before its home record is written. While the winner still held
// its old backup record, it granted the other's claim as a backup would;
// that claimant then served, and destroyed the object, and the winner's
// home record, landing after the destroy, brought it back (depth 20, 1 162
// states). A granted claim now refuses ships, claims and destroys as the
// home from its grants on, and its doubt ends only once its record is
// durable (role.go, settleGranted). It stays a test of its own, which CI
// runs under the race detector.
func TestRolePolicyClaimWindow(t *testing.T) {
	c := roleConfig{name: "two remote sites, both claim", policy: checksitePolicy{RelRemote, []uint32{2, 3}},
		ckpts: 1, destroys: 1, crashes: 1, claims: 2}
	rc := c.run(t, false)
	t.Logf("%s: %d states, %d steps, depth %d, %v", c.name, len(rc.seen), rc.steps, rc.depth, time.Since(rc.started).Round(time.Millisecond))
}

// pinned runs c, which must break an invariant: want, if not empty, is
// the start of the violation.
func pinned(t *testing.T, c roleConfig, want string) {
	t.Helper()
	rc := c.run(t, true)
	if !rc.failed {
		t.Fatalf("no violation in %d states: the pinned defect is fixed", len(rc.seen))
	}
	if !strings.HasPrefix(rc.found, want) {
		t.Fatalf("found another violation than %q: %s", want, rc.found)
	}
	t.Logf("%s", rc.found)
}
