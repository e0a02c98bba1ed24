package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parse pulls a numeric cell out of a table row.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d): %+v", tab.ID, row, col, tab.Rows)
	}
	s := strings.TrimRight(strings.Fields(tab.Rows[row][col])[0], "x%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) %q not numeric: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTableFprint(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "demo", Prediction: "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   "note here",
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"EX — demo", "prediction:", "333", "note here"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAllAndByID(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("suite has %d experiments, want 11", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.Run == nil || e.ID == "" || seen[e.ID] {
			t.Errorf("bad experiment entry %+v", e)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("e6"); !ok {
		t.Error("ByID is not case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID found a ghost")
	}
}

// The per-experiment smoke tests run the real experiment code and
// assert the qualitative shape EXPERIMENTS.md claims. The slower ones
// are skipped in -short mode; the timing-sensitive ones also skip
// under the race detector, whose instrumentation (5-10x CPU slowdown)
// distorts the latency relationships being asserted.

func skipIfNoTiming(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("slow experiment")
	}
	if raceEnabled {
		t.Skip("timing-shape assertions are invalid under the race detector")
	}
}

func TestE1Shape(t *testing.T) {
	skipIfNoTiming(t)
	tab, err := RunE1()
	if err != nil {
		t.Fatal(err)
	}
	for row := range tab.Rows {
		local, remote := cell(t, tab, row, 1), cell(t, tab, row, 2)
		if remote <= local*2 {
			t.Errorf("row %d: remote (%v) not meaningfully above local (%v)", row, remote, local)
		}
	}
	// Local is size-insensitive: nothing on the local path copies the
	// payload — the request is the invoker's slice and the echo's Return
	// gives it straight back — so 64 KiB costs what 64 B does, give or
	// take scheduling noise.
	if first, last := cell(t, tab, 0, 1), cell(t, tab, len(tab.Rows)-1, 1); last > 2*first+3 {
		t.Errorf("local latency grew with payload: %v µs -> %v µs", first, last)
	}
}

func TestE2Shape(t *testing.T) {
	skipIfNoTiming(t)
	tab, err := RunE2()
	if err != nil {
		t.Fatal(err)
	}
	// Throughput rises with the class limit.
	prev := 0.0
	for row := 0; row < 4; row++ {
		ops := cell(t, tab, row, 1)
		if ops <= prev {
			t.Errorf("throughput not increasing: row %d = %v after %v", row, ops, prev)
		}
		prev = ops
	}
	// Limit 1 serializes near 1/serviceTime.
	if ops := cell(t, tab, 0, 1); ops > 550 {
		t.Errorf("limit-1 throughput %v exceeds a single server's capacity", ops)
	}
}

func TestE3Shape(t *testing.T) {
	skipIfNoTiming(t)
	tab, err := RunE3()
	if err != nil {
		t.Fatal(err)
	}
	// Local checkpoint cost grows with size; remote exceeds local.
	if small, big := cell(t, tab, 0, 1), cell(t, tab, len(tab.Rows)-1, 1); big <= small {
		t.Errorf("local checkpoint cost did not grow with size: %v -> %v", small, big)
	}
	for row := range tab.Rows {
		if local, remote := cell(t, tab, row, 1), cell(t, tab, row, 2); remote <= local {
			t.Errorf("row %d: remote checkpoint (%v) not above local (%v)", row, remote, local)
		}
		// Full shipments scale with size; incremental deltas do not
		// (byte counts are deterministic, so exact assertions hold).
		full, incr := cell(t, tab, row, 4), cell(t, tab, row, 5)
		if full < 1000 || incr > 200 {
			t.Errorf("row %d: ship bytes full=%v incr=%v", row, full, incr)
		}
	}
	if f0, fN := cell(t, tab, 0, 4), cell(t, tab, len(tab.Rows)-1, 4); fN <= f0 {
		t.Errorf("full shipment bytes did not grow with size: %v -> %v", f0, fN)
	}
	if i0, iN := cell(t, tab, 0, 5), cell(t, tab, len(tab.Rows)-1, 5); i0 != iN {
		t.Errorf("incremental shipment bytes not size-independent: %v vs %v", i0, iN)
	}
}

func TestE4Shape(t *testing.T) {
	skipIfNoTiming(t)
	tab, err := RunE4()
	if err != nil {
		t.Fatal(err)
	}
	homeOnly, replicated := cell(t, tab, 0, 1), cell(t, tab, 1, 1)
	if replicated*10 > homeOnly {
		t.Errorf("replication gain too small: %v vs %v", replicated, homeOnly)
	}
	if frames := cell(t, tab, 1, 2); frames != 0 {
		t.Errorf("replicated reads still used the network: %v frames", frames)
	}
}

func TestE6Shape(t *testing.T) {
	tab, err := RunE6()
	if err != nil {
		t.Fatal(err)
	}
	// Utilization tracks offered load at the low end and saturates
	// below 1 at the high end; delay explodes past saturation.
	low := cell(t, tab, 0, 1)
	if low < 0.07 || low > 0.13 {
		t.Errorf("utilization at G=0.1 = %v", low)
	}
	sat := cell(t, tab, len(tab.Rows)-1, 1)
	if sat < 0.5 || sat > 1.0 {
		t.Errorf("saturated utilization = %v", sat)
	}
	if dLow, dHigh := cell(t, tab, 0, 2), cell(t, tab, len(tab.Rows)-1, 2); dHigh < dLow*20 {
		t.Errorf("delay did not explode past saturation: %v -> %v", dLow, dHigh)
	}
	if _, err := RunE6Stations(); err != nil {
		t.Fatal(err)
	}
}

func TestE7Shape(t *testing.T) {
	skipIfNoTiming(t)
	tab, err := RunE7()
	if err != nil {
		t.Fatal(err)
	}
	moved, warm := cell(t, tab, 0, 1), cell(t, tab, 1, 1)
	if moved <= warm {
		t.Errorf("first touch of a moved object (%v) not above warm (%v)", moved, warm)
	}
	if warmBroadcasts := cell(t, tab, 1, 2); warmBroadcasts != 0 {
		t.Errorf("warm lookups broadcast %v times", warmBroadcasts)
	}
	if fresh := cell(t, tab, 2, 2); fresh != 0 {
		t.Errorf("first touches of never-moved objects broadcast %v times", fresh)
	}
}

func TestE8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment (multiple crash/recovery timeouts)")
	}
	tab, err := RunE8()
	if err != nil {
		t.Fatal(err)
	}
	wantSurvive := []string{"false", "false", "true", "true"}
	for row, want := range wantSurvive {
		if got := tab.Rows[row][1]; got != want {
			t.Errorf("policy %q: survives = %s, want %s", tab.Rows[row][0], got, want)
		}
	}
}

func TestE9Shape(t *testing.T) {
	skipIfNoTiming(t)
	tab, err := RunE9()
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0..3: locking-hot, locking-distinct, optimistic-hot,
	// optimistic-distinct. Hot files must be slower and conflicted.
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		hot, cold := cell(t, tab, pair[0], 1), cell(t, tab, pair[1], 1)
		if hot >= cold {
			t.Errorf("hot-file throughput (%v) not below distinct-files (%v)", hot, cold)
		}
		if conflicts := cell(t, tab, pair[0], 2); conflicts == 0 {
			t.Errorf("hot-file workload recorded no conflicts")
		}
	}
	// Mirror read beats remote primary.
	n := len(tab.Rows)
	remote, local := cell(t, tab, n-2, 1), cell(t, tab, n-1, 1)
	if local >= remote {
		t.Errorf("local mirror read (%v) not below remote primary (%v)", local, remote)
	}
}

func TestE10Shape(t *testing.T) {
	tab, err := RunE10()
	if err != nil {
		t.Fatal(err)
	}
	// Dispatch stays cheap at depth 8 (well under a millisecond).
	if deep := cell(t, tab, len(tab.Rows)-1, 1); deep > 1000 {
		t.Errorf("depth-8 dispatch = %v µs", deep)
	}
}

func TestE5Shape(t *testing.T) {
	skipIfNoTiming(t)
	tab, err := RunE5()
	if err != nil {
		t.Fatal(err)
	}
	// Move cost is a fixed ship round trip plus a size-dependent term;
	// with the injected network latency the fixed part dominates small
	// sizes and timer jitter can reorder adjacent rows, so only a loose
	// sanity bound is asserted here (the size trend is visible in
	// edenbench runs and in BenchmarkMove64KB without injected latency).
	for row := range tab.Rows {
		if mv := cell(t, tab, row, 1); mv <= 0 || mv > 1e6 {
			t.Errorf("row %d: implausible move cost %v µs", row, mv)
		}
	}
	// The "first post-move invocation pays a forwarding chase" property
	// is asserted deterministically (via MovedChases counters) in the
	// kernel package's TestMoveObject; the latency column here is a
	// single wall-clock sample and too noisy to gate on when the test
	// machine is loaded, so only plausibility is checked.
	for row := range tab.Rows {
		if first := cell(t, tab, row, 3); first <= 0 || first > 1e6 {
			t.Errorf("row %d: implausible first post-move latency %v µs", row, first)
		}
	}
}

func TestMeasureHelper(t *testing.T) {
	med, p10, p90, err := measure(50, func() error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if med < time.Millisecond || med > 20*time.Millisecond {
		t.Errorf("median = %v", med)
	}
	if p10 > med || med > p90 {
		t.Errorf("quantiles out of order: %v %v %v", p10, med, p90)
	}
}

func TestE6SizesShape(t *testing.T) {
	tab, err := RunE6Sizes()
	if err != nil {
		t.Fatal(err)
	}
	short, long := cell(t, tab, 0, 1), cell(t, tab, len(tab.Rows)-1, 1)
	if long <= short {
		t.Errorf("long frames (%v) not above short (%v)", long, short)
	}
	for row := range tab.Rows {
		if f := cell(t, tab, row, 4); f < 0.8 {
			t.Errorf("row %d: fairness %v below 0.8", row, f)
		}
		u, bound := cell(t, tab, row, 1), cell(t, tab, row, 2)
		if u > bound+0.05 {
			t.Errorf("row %d: utilization %v exceeds theoretical bound %v", row, u, bound)
		}
	}
}

func TestE11Shape(t *testing.T) {
	skipIfNoTiming(t)
	tab, err := RunE11()
	if err != nil {
		t.Fatal(err)
	}
	// Resident working set: no paging at all.
	for row := 0; row < 2; row++ {
		if ev := cell(t, tab, row, 2); ev != 0 {
			t.Errorf("row %d: %v evictions with a resident working set", row, ev)
		}
	}
	// Overcommitted: paging traffic and slower accesses.
	for row := 2; row < len(tab.Rows); row++ {
		if ev := cell(t, tab, row, 2); ev == 0 {
			t.Errorf("row %d: no evictions despite overcommit", row)
		}
		if fast, slow := cell(t, tab, 0, 1), cell(t, tab, row, 1); slow <= fast {
			t.Errorf("row %d: paged invoke (%v) not above resident (%v)", row, slow, fast)
		}
	}
}
