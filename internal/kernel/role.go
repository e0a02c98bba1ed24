package kernel

import (
	"errors"
	"slices"
	"time"

	"eden/internal/store"
)

// This file holds the role policy: what one node is to one object besides
// its incarnation — the home's checkpoint policy, a checksite's backup, a
// claim, a move intent — and one pure transition that decides how that
// changes. roleStep references no *Kernel, lock, store or clock: it
// returns the new state and the effects to carry out, in order. The
// monitor is stepRoleLocked, which keeps the state in the role table
// under Kernel.mu, and applyRole, which carries the effects out once the
// lock is let go. TestRolePolicy checks the policy exhaustively at small
// scope.
//
// An ex-checksite is a node that may hold a record of the object without
// being one of its checksites: a site a policy change dropped after a
// checkpoint went to it, or a home whose object a checksite claimed.
// Destroys and claims reach it as they reach the checksites.
//
// A claim is how a node comes to serve an object from a record whose
// policy names other checksites without having served it since its boot:
// a checksite promoting itself after the home failed, or a home that
// restarted. The claimant ships its record, one version and one epoch on,
// to every other checksite and ex-checksite; each grants by holding that
// record as the claimant's backup, durably, and the claimant serves only
// once all have granted and its own record is durable, though it refuses
// as the home from the last grant on. A node that serves the object,
// holds it from a later epoch or a newer checkpoint, or holds no record
// of it refuses; so does a claimant with a lower node number, which wins.
// A claim that cannot reach a sibling stays in doubt, and the next touch
// claims again.
//
// A move is a two-phase transaction ordered by residency epochs: the
// source's durable intent (destination, epoch) comes before the ship, the
// destination installs and acks, and the source commits: a forward
// (store.Record.Forward) replaces its record, then its intent goes. An
// intent found at boot is settled as a claim is, one settlement per object
// at a time: beside its commit's forward it only goes, else a touch probes
// the destination at the intent's epoch, and the answer decides.
//
//	installed: the object is served or recorded | roll forward: the forward
//	there from that epoch on, or a forward or a | replaces the record, then
//	backup there is later                       | the intent goes
//	not installed                               | roll back: the intent goes,
//	                                            | then the object resumes
//	no answer                                   | in doubt: serve nothing,
//	                                            | probe on the next touch

// role is one entry of the kernel's role table (Kernel.roles): the
// policy's state plus what only the monitor keeps.
type role struct {
	roleState
	lastShip time.Time     // the last accepted ship (the home's heartbeat), or the boot
	settled  chan struct{} // closed when the settlement under way ends; nil when none runs
}

// roleState is the policy's whole state for one object on one node; the
// node's record, a forward included, is roleEvent.rec.
type roleState struct {
	policy checksitePolicy // the object's checksites: the home's, or as the last ship said
	ex     []uint32        // ex-checksites that may still hold a record of the object
	// home: every remote site that may hold a record of the object — a
	// checkpoint went to it, or it was a checksite when this node became
	// the home.
	shipped []uint32
	home    uint32  // backup: the object's home; 0 on the home's side
	epoch   uint64  // backup: the residency epoch the record was shipped at
	floor   uint64  // backup: the serving floor, no shadow below it (floorDisabled after a move)
	shadow  *Object // backup: the shadow serving stale-tolerant reads, if made
	phase   settlePhase
	intent  residency // a move intent: the destination, and the epoch the move installs at
}

// residency is a node an object lives at from an epoch on.
type residency struct {
	node  uint32
	epoch uint64
}

// settlePhase says whether the node must settle a doubt before it serves
// the object: probe its move intent's destination, or claim its record.
type settlePhase uint8

const (
	settleNone    settlePhase = iota
	settleNeeded              // a restarted node: an intent to probe, or a sited record to claim
	settleRunning             // a probe or a claim is in flight
	settleGranted             // every sibling granted the claim: the node serves once its home record is durable
)

// held reports whether the state is worth an entry: a backup, a policy
// other than the default, ex-checksites, a settlement, or a move.
func (s *roleState) held() bool {
	return s.home != 0 || s.policy.level != RelLocal || len(s.ex) > 0 || s.phase != settleNone || s.intent.node != 0
}

// siblings returns the nodes other than self that may hold a record of
// the object: its checksites and its ex-checksites.
func (s *roleState) siblings(self uint32) []uint32 {
	var out []uint32
	if s.policy.level != RelLocal {
		out = append(out, s.policy.sites...)
	}
	out = append(out, s.ex...)
	slices.Sort(out)
	out = slices.Compact(out)
	return slices.DeleteFunc(out, func(n uint32) bool { return n == self })
}

// targets says where a checkpoint goes under the policy: this node's
// store, and the remote sites.
func (p checksitePolicy) targets(self uint32) (local bool, remote []uint32) {
	local = p.level == RelLocal || p.level == RelReplicated
	if p.level == RelLocal {
		return local, nil
	}
	for _, site := range p.sites {
		if site == self {
			local = true // this node named as its own checksite
		} else {
			remote = append(remote, site)
		}
	}
	return local, remote
}

// names reports whether the policy names site as a checksite.
func (p checksitePolicy) names(site uint32) bool {
	return p.level != RelLocal && slices.Contains(p.sites, site)
}

// seeded is the shipped list of a node that becomes the home from a
// record or a move: every remote checksite may hold a record already.
func (p checksitePolicy) seeded(self uint32) []uint32 {
	_, remote := p.targets(self)
	return remote
}

// durable is the state's policy as records and ships carry it.
func (s *roleState) durable() store.Policy {
	return store.Policy{Level: uint8(s.policy.level), Sites: s.policy.sites, Ex: s.ex}
}

// policyOf is the policy a record or a ship carries.
func policyOf(p store.Policy) checksitePolicy {
	return checksitePolicy{level: Reliability(p.Level), sites: p.Sites}
}

// roleEventKind names what happened.
type roleEventKind uint8

const (
	evPolicy        roleEventKind = iota // Create or SetChecksite chose policy
	evCheckpoint                         // the home checkpoints
	evShip                               // a checkpoint ship (or a claim) from from arrived
	evInvalidate                         // an invalidation: version acked, or the object moved to from
	evMoveIn                             // a move installed here, with policy and ex; backup: a backup record is here
	evSettle                             // a touch needs this node to serve the object; policy and ex from its record
	evClaimDone                          // every sibling answered a claim: granted, or superseded
	evDestroy                            // the home destroys the object
	evDestroyShip                        // a destroy from from, at epoch, arrived
	evBoot                               // the boot scan found this node's record, and its intent to from at epoch
	evShadow                             // a shadow was made of this node's backup record
	evMoveStart                          // a move's intent, to from at epoch, is durable
	evMoveAcked                          // from installed the move at epoch: the move commits
	evMoveAborted                        // the move's ship failed: the move rolls back
	evMoveCommitted                      // the intent's deletion is durable: the move's outcome is final
	evIntentKept                         // the intent's deletion failed: the intent stays
	evProbeAnswered                      // the intent's destination answered a probe, or did not
	evProbe                              // a probe from from, at epoch, arrived
	evHomeWritten                        // the home record a granted claim makes is durable
	evHomeUnwritten                      // the home record a granted claim makes failed to be written
)

// roleEvent is one input of roleStep. Only the fields its kind names are
// read.
type roleEvent struct {
	kind    roleEventKind
	self    uint32 // this node
	from    uint32 // the sender: a ship's, a destroy's; a move invalidate's new home; a move's destination
	version uint64 // a ship's, move's or invalidation's version
	epoch   uint64 // a ship's, destroy's or probe's epoch; the epoch a move installs at
	policy  checksitePolicy
	ex      []uint32
	claim   bool // evShip: the ship claims the object for from
	move    bool // evInvalidate: the object moved to from
	serving bool // this node serves the object as its home
	fresh   bool // the backup's heartbeat is within RecoverGrace
	granted bool // evClaimDone: every sibling granted
	// evProbeAnswered: the destination answered, and said it installed the
	// move.
	answered, installed bool
	// evClaimDone: a sibling serves the object, or holds it from a later
	// residency.
	superseded bool
	// evShip, evDestroyShip, evMoveIn, evBoot, evMoveCommitted and
	// evProbe: this node's record, if it has one (evShip and evProbe: at
	// the epoch it serves the object at, if it does); evSettle: a record
	// to claim was read, and rec is what Stat says.
	record bool
	rec    store.Meta
	shadow *Object // evShadow: the shadow made
}

// effectKind names one effect.
type effectKind uint8

const (
	fxPut          effectKind = iota + 1 // write this node's record: its own on the home's side, a move's forward, else a backup for home
	fxDelete                             // delete this node's record
	fxDeleteIntent                       // delete this node's move intent: evMoveCommitted once it is durable, else evIntentKept
	fxPutHome                            // write the home record a granted claim makes: evHomeWritten once it is durable, else evHomeUnwritten
	fxRetire                             // retire shadow; calls queued at it bounce to site (0: report a crash)
	fxShip                               // ship the checkpoint to site
	fxClaim                              // ship the claim to site
	fxDestroy                            // ship a destroy to site
	fxProbe                              // probe site, the intent's destination, at the intent's epoch
	fxRefuse                             // answer the event's sender with err
)

// roleEffect is one effect, as data.
type roleEffect struct {
	kind   effectKind
	site   uint32
	shadow *Object
	err    error
}

// refuses reports whether the effect is a refusal.
func (e roleEffect) refuses() bool { return e.kind == fxRefuse }

// ships reports whether the effect sends something to site.
func (e roleEffect) ships() bool { return e.kind >= fxShip && e.kind <= fxDestroy }

// Refusals.
var (
	// errSuperseded refuses a claim or a ship from a node whose record
	// a later residency — a move, or a granted claim — has replaced.
	errSuperseded = errors.New("kernel: superseded by a later home")
	// errClaimLost refuses a claim while this node, with a lower
	// number, claims the same object.
	errClaimLost = errors.New("kernel: a lower-numbered checksite claims the object")
	// errHomeHere refuses a ship, or a claim from the same or a later
	// residency, at a node that serves the object.
	errHomeHere = errors.New("kernel: the object is served here")
	// errNewer refuses a claim at a node whose record is newer than the
	// claimant's: the claim would lose a checkpoint.
	errNewer = errors.New("kernel: a newer checkpoint is held here")
	// errHomeAlive refuses a claim while this node heard from the home
	// within RecoverGrace.
	errHomeAlive = errors.New("kernel: the home shipped within the recovery grace")
	// errNoRecord refuses a claim at a node that holds no record of the
	// object.
	errNoRecord = errors.New("kernel: no record of the object here")
	// errNotBackup refuses a destroy from a node this node's record is
	// not held for.
	errNotBackup = errors.New("kernel: not a backup held for the sender")
	// errBelowFloor refuses a shadow made of a record the serving floor
	// has passed.
	errBelowFloor = errors.New("kernel: the record is below the serving floor")
	// errProbeNotInstalled answers a probe for a move this node did not
	// install: the source rolls the move back.
	errProbeNotInstalled = errors.New("kernel: probed object not installed")
	// errStaleMove refuses a move's ship at a node that hosts the object
	// from the epoch the move installs at, or a later one.
	errStaleMove = errors.New("kernel: stale move")
)

// roleStep is the policy: the state after ev, and the effects to apply, in
// order, appended to fx. It changes nothing it is given; slices in the
// state are replaced, never written.
func roleStep(s roleState, ev roleEvent, fx []roleEffect) (roleState, []roleEffect) {
	switch ev.kind {
	case evPolicy:
		// A site the new policy drops may hold a record if a checkpoint
		// went to it: it becomes an ex-checksite, which Destroy and
		// claims reach. A site no checkpoint went to holds nothing, and
		// would refuse every claim.
		for _, site := range s.shipped {
			if !ev.policy.names(site) && !slices.Contains(s.ex, site) {
				s.ex = append(slices.Clip(s.ex), site)
			}
		}
		s.policy = ev.policy

	case evCheckpoint:
		local, remote := s.policy.targets(ev.self)
		if local {
			fx = append(fx, roleEffect{kind: fxPut})
		}
		for _, site := range remote {
			if !slices.Contains(s.shipped, site) {
				s.shipped = append(slices.Clip(s.shipped), site)
			}
			fx = append(fx, roleEffect{kind: fxShip, site: site})
		}

	case evShip:
		serving := ev.serving || s.phase == settleGranted // the home, its record not yet durable
		var refuse error
		switch {
		case s.intent.node != 0:
			refuse = ErrMoving // the record here is about to go, or to be settled
		case serving && ev.claim && normEpoch(ev.rec.Epoch)+1 >= ev.epoch:
			// This node became the home at or after the epoch of the
			// claimant's record: a move's destination that restarted finds
			// its record claimed by a checksite that missed the move, or a
			// sibling's claim meets the claim that beat it.
			refuse = errSuperseded
		case serving:
			refuse = errHomeHere
		case s.home != 0 && ev.epoch < s.epoch:
			refuse = errSuperseded
		case !ev.claim:
		case ev.rec.Forward && normEpoch(ev.rec.Epoch) >= ev.epoch:
			refuse = errSuperseded // moved on from here at the claimant's residency
		case !ev.record || ev.rec.Forward:
			// Nothing here to vouch for: the object was destroyed or
			// moved on from here, or never reached this node. A grant
			// could bring back a destroyed object, or make a second home.
			refuse = errNoRecord
		case s.home != 0 && s.home != ev.from && ev.epoch <= s.epoch:
			refuse = errSuperseded // granted to another claimant at this epoch
		case ev.rec.Version >= ev.version && !(s.home == ev.from && s.epoch == ev.epoch):
			refuse = errNewer
		case s.phase == settleRunning && ev.self < ev.from:
			refuse = errClaimLost
		case s.home != 0 && s.home != ev.from && ev.fresh:
			refuse = errHomeAlive
		}
		if refuse != nil {
			return s, append(fx, roleEffect{kind: fxRefuse, err: refuse})
		}
		// Raising the floor before the ack keeps the staleness bound: once
		// the home sees the ack, no read here may serve an older version.
		// A floor disabled by a move re-enables, since the shipper has
		// proven itself the object's live home.
		if s.home == 0 || s.floor == floorDisabled || s.floor < ev.version {
			s.floor = ev.version
		}
		s.home, s.epoch, s.policy, s.ex, s.shipped = ev.from, ev.epoch, ev.policy, ev.ex, nil
		s.phase = settleNone // a live home, or a winning claim, ends this node's claim
		// The record goes first: the ack that follows is the durability
		// anchor of the staleness bound, and for a claim the grant.
		fx = append(fx, roleEffect{kind: fxPut})
		fx = s.retireBelow(ev.version, ev.from, fx)

	case evInvalidate:
		if s.home == 0 {
			break
		}
		switch {
		case ev.move:
			// The record stays the new home's backup, but the new home may
			// not ship here before it checkpoints, so it only grows staler;
			// refuse to serve until it does.
			s.home, s.floor = ev.from, floorDisabled
			fx = s.retireBelow(floorDisabled, ev.from, fx)
		case s.floor == floorDisabled || s.floor < ev.version:
			s.floor = ev.version
			fx = s.retireBelow(ev.version, ev.from, fx)
		default:
			fx = s.retireBelow(ev.version, ev.from, fx)
		}

	case evMoveIn:
		fx = s.retireBelow(floorDisabled, ev.self, fx) // calls queued at the shadow find the object here
		s = roleState{policy: ev.policy, ex: ev.ex, shipped: ev.policy.seeded(ev.self)}
		if ev.version > 0 {
			if ev.rec.Backup || ev.rec.Version >= ev.version {
				// A backup here, or a record or forward of an earlier
				// residency here at the moved version, would refuse the home
				// record as stale: it goes first. A crash between the two
				// loses no acknowledged move, since the ack comes after.
				fx = append(fx, roleEffect{kind: fxDelete})
			}
			fx = append(fx, roleEffect{kind: fxPut})
		}

	case evSettle:
		switch {
		case s.phase == settleRunning, s.home != 0 && ev.fresh:
			return s, fx
		case s.home != 0 && normEpoch(ev.rec.Epoch) < s.epoch:
			// The record read predates a grant stepped since, whose
			// epoch a claim from it would take.
			return s, fx
		case s.intent.node != 0 && s.phase == settleNeeded && ev.rec.Forward && normEpoch(ev.rec.Epoch) >= s.intent.epoch:
			s.phase = settleNone // the commit's forward is durable, and answers: the intent only goes
			return s, append(fx, roleEffect{kind: fxDeleteIntent})
		case s.intent.node != 0 && s.phase == settleNeeded:
			s.phase = settleRunning
			return s, append(fx, roleEffect{kind: fxProbe, site: s.intent.node})
		case s.intent.node != 0, !ev.record:
			return s, fx // a live move owns the intent, or there is nothing to claim
		}
		s.policy, s.ex, s.phase = ev.policy, ev.ex, settleRunning
		sibs := s.siblings(ev.self)
		if len(sibs) == 0 {
			return roleStep(s, roleEvent{kind: evClaimDone, self: ev.self, granted: true}, fx)
		}
		for _, site := range sibs {
			fx = append(fx, roleEffect{kind: fxClaim, site: site})
		}

	case evClaimDone:
		if s.phase != settleRunning || s.intent.node != 0 {
			break // a live home's ship, or a winning claim, ended it
		}
		switch {
		case ev.granted:
			// The home that failed holds a record of its own if its policy
			// wrote one: it becomes an ex-checksite, so Destroy reaches it.
			if old := s.home; old != 0 && !slices.Contains(s.ex, old) &&
				(s.policy.level == RelReplicated || slices.Contains(s.policy.sites, old)) {
				s.ex = append(slices.Clip(s.ex), old)
			}
			fx = s.retireBelow(floorDisabled, ev.self, fx)
			s = roleState{policy: s.policy, ex: s.ex, shipped: s.policy.seeded(ev.self), phase: settleGranted}
			fx = append(fx, roleEffect{kind: fxPutHome})
		case s.home != 0:
			s.phase = settleNone
		case ev.superseded:
			// A restarted home whose object lives on elsewhere: its
			// record is history.
			s = roleState{}
			fx = append(fx, roleEffect{kind: fxDelete})
		default:
			s.phase = settleNeeded
		}

	case evDestroy:
		fx = append(fx, roleEffect{kind: fxDelete})
		for _, site := range s.siblings(ev.self) {
			fx = append(fx, roleEffect{kind: fxDestroy, site: site})
		}
		s = roleState{}

	case evDestroyShip:
		// Only the home a backup names, or a later residency, may destroy
		// it: a record this node is home for is not the sender's. A
		// forward stays, to answer a probe of the move it made.
		record := ev.record && !ev.rec.Forward
		if ev.serving || s.phase == settleGranted || record && !(ev.rec.Backup && ev.rec.Home == ev.from) && ev.epoch <= normEpoch(ev.rec.Epoch) {
			return s, append(fx, roleEffect{kind: fxRefuse, err: errNotBackup})
		}
		fx = s.retireBelow(floorDisabled, 0, fx)
		s = roleState{}
		if record {
			fx = append(fx, roleEffect{kind: fxDelete})
		}

	case evBoot:
		switch {
		case ev.from != 0:
			s.intent, s.phase = residency{ev.from, ev.epoch}, settleNeeded
		case ev.rec.Backup:
			s.home, s.epoch = ev.rec.Home, normEpoch(ev.rec.Epoch)
			if s.floor != floorDisabled {
				s.floor = max(s.floor, ev.rec.Version)
			}
		case ev.rec.Sited && s.home == 0 && s.phase == settleNone:
			s.phase = settleNeeded
		}

	case evShadow:
		switch {
		case s.home == 0 || s.floor == floorDisabled || ev.shadow.version < s.floor:
			fx = append(fx, roleEffect{kind: fxRefuse, err: errBelowFloor})
		case s.shadow != nil && s.shadow.version >= ev.shadow.version:
			// Lost a benign race: the state's shadow serves.
		default:
			if s.shadow != nil {
				fx = append(fx, roleEffect{kind: fxRetire, shadow: s.shadow, site: s.home})
			}
			s.shadow = ev.shadow
		}

	case evMoveStart:
		s.intent, s.phase = residency{ev.from, ev.epoch}, settleNone // a live move owns the intent

	case evMoveAcked:
		s, fx = commit(residency{ev.from, ev.epoch}, fx)

	case evMoveAborted:
		fx = append(fx, roleEffect{kind: fxDeleteIntent})

	case evProbeAnswered:
		switch {
		case s.phase != settleRunning || s.intent.node == 0:
		case !ev.answered:
			s.phase = settleNeeded // in doubt: the next touch probes again
		case ev.installed:
			s, fx = commit(s.intent, fx)
		default:
			// Never installed: the object resumes here once the intent's
			// deletion is durable.
			fx = append(fx, roleEffect{kind: fxDeleteIntent})
		}

	case evMoveCommitted:
		switch {
		case s.intent.node == 0:
		case s.phase != settleNone && ev.record && ev.rec.Sited && !ev.rec.Backup:
			s.intent, s.phase = residency{}, settleNeeded // a restarted home claims its record next
		default:
			s.intent, s.phase = residency{}, settleNone
		}

	case evHomeWritten:
		if s.phase == settleGranted {
			s.phase = settleNone // the node serves the object from its record
		}

	case evHomeUnwritten:
		if s.phase == settleGranted {
			s.phase = settleNeeded // the next touch claims again
		}

	case evIntentKept:
		// A roll-back's or a live abort's intent is settled by a probe,
		// on the next touch that finds the object not served here, as
		// after a boot; one beside its commit's durable forward only goes.
		if s.intent.node != 0 {
			s.phase = settleNeeded
		}

	case evProbe:
		// Installed here: the object is served or recorded here from the
		// probed epoch on, or moved on from here (a forward, a move under
		// way, or a later home's backup over the forward) at a later one;
		// not a forward from an earlier residency.
		e := normEpoch(ev.rec.Epoch)
		if !(ev.record && (e > ev.epoch || e == ev.epoch && !ev.rec.Backup) || s.intent.epoch > ev.epoch) {
			fx = append(fx, roleEffect{kind: fxRefuse, err: errProbeNotInstalled})
		}
	}
	return s, fx
}

// commit is a move's commit at its source: the forward to where it
// installed replaces the record, then the intent goes, so that a crash
// between the two leaves an intent the forward settles, never a record
// this node would serve as its own.
func commit(to residency, fx []roleEffect) (roleState, []roleEffect) {
	return roleState{intent: to}, append(fx, roleEffect{kind: fxPut}, roleEffect{kind: fxDeleteIntent})
}

// judgeRole is the policy's verdict on this node's record of an object:
// s (when held) is the object's role here, and here and m the record: a
// forward is forwarded, unless an intent beside it is later, or waits to
// be settled.
func judgeRole(s roleState, held, here bool, m store.Meta) verdict {
	switch {
	case m.Forward && normEpoch(m.Epoch) >= s.intent.epoch && s.phase != settleNeeded:
		return verdict{role: forwarded, node: m.Home} // moved on: the forward answers
	case held && s.intent.node != 0:
		return verdict{role: inDoubt} // a move to settle, or under way
	case !here || m.Forward:
		return verdict{role: noRecord}
	case held && s.home != 0:
		return verdict{role: backupRecord, aboveFloor: m.Version >= s.floor}
	case held && (s.phase != settleNone || m.Backup):
		// A claim to make or to finish (granted, its home record not
		// written yet).
		return verdict{role: inDoubt}
	}
	return verdict{role: ownRecord}
}

// moveFence is the destination's verdict on a move's ship that installs
// at epoch, hosting the epoch of an incarnation here (0: none): a replay
// of an older move would fork the object's history, and a move intent of
// this node's own means its record may yet go, or be served.
func moveFence(s roleState, hosting, epoch uint64) error {
	switch {
	case hosting >= epoch:
		return errStaleMove
	case s.intent.node != 0:
		return ErrMoving
	}
	return nil
}

// same reports whether s and t agree on all but their policy: whether a
// later step has changed the state a step left.
func (s *roleState) same(t roleState) bool {
	return s.home == t.home && s.epoch == t.epoch && s.floor == t.floor && s.shadow == t.shadow && s.phase == t.phase &&
		s.intent == t.intent
}

// retireBelow retires the shadow if its version is below version; calls
// queued at it bounce to home.
func (s *roleState) retireBelow(version uint64, home uint32, fx []roleEffect) []roleEffect {
	if s.shadow != nil && s.shadow.version < version {
		fx = append(fx, roleEffect{kind: fxRetire, shadow: s.shadow, site: home})
		s.shadow = nil
	}
	return fx
}
