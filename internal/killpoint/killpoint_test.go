package killpoint

import (
	"os"
	"testing"
)

func TestInertByDefault(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Hit(CheckpointPreSync)
	Hit(CheckpointPreSync)
	if got := Hits(CheckpointPreSync); got != 0 {
		t.Fatalf("inert registry counted %d hits, want 0", got)
	}
	if l := Log(); len(l) != 0 {
		t.Fatalf("inert registry logged %v", l)
	}
}

func TestObserveCounts(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Observe()
	Hit(CheckpointPreSync)
	Hit(CheckpointPostSync)
	Hit(CheckpointPreSync)
	if got := Hits(CheckpointPreSync); got != 2 {
		t.Errorf("Hits(pre-sync) = %d, want 2", got)
	}
	if got := Hits(CheckpointPostSync); got != 1 {
		t.Errorf("Hits(post-sync) = %d, want 1", got)
	}
	want := []Point{CheckpointPreSync, CheckpointPostSync, CheckpointPreSync}
	got := Log()
	if len(got) != len(want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("log[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestArmFiresAfterN(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	var fired []uint64
	Arm(MovePreCommit, 2, func(p Point) {
		if p != MovePreCommit {
			t.Errorf("fired with %v", p)
		}
		fired = append(fired, Hits(MovePreCommit))
	})
	for i := 0; i < 5; i++ {
		Hit(MovePreCommit)
	}
	if len(fired) != 1 {
		t.Fatalf("armed point fired %d times, want 1 (one-shot)", len(fired))
	}
	if fired[0] != 3 {
		t.Errorf("fired on hit %d, want 3 (after=2)", fired[0])
	}
	if got := Hits(MovePreCommit); got != 5 {
		t.Errorf("hits = %d, want 5 (counting continues after firing)", got)
	}
}

func TestDisarm(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Arm(PassivatePreRelease, 0, func(Point) { t.Fatal("disarmed point fired") })
	Disarm(PassivatePreRelease)
	Hit(PassivatePreRelease)
	if got := Hits(PassivatePreRelease); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
}

func TestArmFromEnv(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	t.Setenv(EnvPoint, string(ReincarnatePreInstall))
	t.Setenv(EnvAfter, "1")
	p, armed := ArmFromEnv()
	if !armed || p != ReincarnatePreInstall {
		t.Fatalf("ArmFromEnv = %v, %v", p, armed)
	}
	// Replace the lethal default action before hitting.
	var fired int
	Arm(ReincarnatePreInstall, 1, func(Point) { fired++ })
	Hit(ReincarnatePreInstall)
	if fired != 0 {
		t.Fatal("fired on first hit despite after=1")
	}
	Hit(ReincarnatePreInstall)
	if fired != 1 {
		t.Fatalf("fired %d times after second hit, want 1", fired)
	}

	os.Unsetenv(EnvPoint) // Setenv's cleanup restores; be explicit for clarity
	Reset()
	if _, armed := ArmFromEnv(); armed {
		t.Fatal("ArmFromEnv armed with no env set")
	}
}

func TestCountersAndString(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Observe()
	Hit(CheckpointPreSync)
	Hit(MovePreShip)
	c := Counters()
	if c["checkpoint.pre-sync"] != 1 || c["move.pre-ship"] != 1 {
		t.Errorf("counters = %v", c)
	}
	if s := String(); s != "checkpoint.pre-sync=1 move.pre-ship=1" {
		t.Errorf("String() = %q", s)
	}
}

func TestPointsRegistered(t *testing.T) {
	if len(Points()) != 12 {
		t.Fatalf("Points() = %v", Points())
	}
	seen := make(map[Point]bool)
	for _, p := range Points() {
		if seen[p] {
			t.Errorf("duplicate point %q", p)
		}
		seen[p] = true
	}
}
