package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// smokeWorkload is the named workload cut down to a size a test can
// populate in a fraction of a second; the shape (stores, transports,
// mix, resident share) is untouched.
func smokeWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	if w.efs {
		w.keys /= 40
		w.buildCDF()
	}
	return w
}

// smokeSeconds asks for fewer ops than opsFor's floor, so every
// workload runs that floor: 200 measured ops, 100 traced.
const smokeSeconds = 0.001

func TestWorkloads(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			w, out := smokeWorkload(t, wl.name), t.TempDir()
			bare, err := endToEnd(w, 1981, smokeSeconds, out)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range comparedDefs {
				m, ok := bare.Metrics[d.name]
				if w.writes == 0 && (d.name == "write_p50_us" || d.name == "write_p95_us") {
					if ok {
						t.Errorf("%s = %+v on a workload that never writes, want it absent", d.name, m)
					}
					continue
				}
				// Every one is above zero, but for the share of failed ops.
				if zero := d.name == "fail_ratio"; !ok || m.Value < 0 || (m.Value == 0 && !zero) || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
					t.Errorf("end-to-end metric %s = %+v (present %v), want a finite value above zero in %s", d.name, m, ok, d.unit)
				}
			}
			traced, err := perLayer(w, 1981, smokeSeconds, out)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range perLayerDefs {
				m, ok := traced.Metrics[d.name]
				// The overhead is a difference of two measured rates
				// and may fall either side of zero on 100 ops.
				negative := m.Value < 0 && d.name != "telemetry.overhead_frac"
				if !ok || negative || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer metric %s = %+v (present %v), want finite and non-negative", d.name, m, ok)
				}
			}
			if bare.Failed*100 > bare.Attempted || traced.Failed*100 > traced.Attempted {
				t.Errorf("failed ops: bare %d/%d, traced %d/%d", bare.Failed, bare.Attempted, traced.Failed, traced.Attempted)
			}

			// The workloads isolate their layers.
			zero := func(names ...string) {
				for _, n := range names {
					if v := traced.Metrics[n].Value; v != 0 {
						t.Errorf("%s = %v on %s, want exactly 0", n, v, w.name)
					}
				}
			}
			switch w.name {
			case "invoke-local":
				zero("transport.frames_per_op", "store.puts_per_op", "store.gets_per_op", "kernel.remote_per_op")
			case "invoke-remote":
				// Puts only: the invoking kernel probes its own store
				// twice per remote invocation (README, findings).
				zero("store.puts_per_op", "lifecycle.checkpoints_per_op")
			case "kv-paged":
				if v := traced.Metrics["lifecycle.reincarnations_per_op"].Value; v < 0.5 {
					t.Errorf("lifecycle.reincarnations_per_op = %v, want at least 0.5: the paged workload must hit passive objects", v)
				}
			}

			// The breakdown accounts for the whole client op.
			var share float64
			for _, b := range traced.Breakdown {
				share += b.Share
			}
			if math.Abs(share-1) > 0.05 {
				t.Errorf("self times add up to %.3f of the op spans, want within 5 %% of 1", share)
			}

			// Nothing is left behind but results and the trace.
			if left, _ := filepath.Glob(filepath.Join(out, "stores", "*")); len(left) > 0 {
				t.Errorf("store directories left behind: %v", left)
			}
			if _, err := os.Stat(filepath.Join(out, w.name+".trace.json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

func TestSelfTimesAddUp(t *testing.T) {
	// An op with two overlapping children, a grandchild that outlives
	// its parent, and a child that ends after the op.
	spans := []span{
		{ID: 0, Parent: -1, Name: spanOp, Start: 100, End: 1100},
		{ID: 1, Parent: 0, Name: spanSend, Start: 150, End: 300},
		{ID: 2, Parent: 0, Name: spanHandler, Start: 250, End: 900},
		{ID: 3, Parent: 2, Name: spanPut, Start: 400, End: 950},
		{ID: 4, Parent: 0, Name: spanSend, Start: 1000, End: 1300},
	}
	self := selfTimes(spans)
	var sum int64
	for i, s := range self {
		if s < 0 {
			t.Errorf("span %d has negative self time %d", i, s)
		}
		sum += s
	}
	if want := spans[0].End - spans[0].Start; sum != want {
		t.Errorf("self times add up to %d, want the op span %d (%v)", sum, want, self)
	}
	if self[3] != 500 { // clipped to its handler, 400..900
		t.Errorf("store.put self = %d, want 500", self[3])
	}
}

func TestSameSeedSameOps(t *testing.T) {
	for _, wl := range workloads {
		a, _ := lookupWorkload(wl.name)
		b, _ := lookupWorkload(wl.name)
		differs, writes := false, 0
		for i := 0; i < 20_000; i++ {
			if a.op(7, i) != b.op(7, i) {
				t.Fatalf("%s: op %d differs between two runs of one seed", wl.name, i)
			}
			if a.op(7, i) != a.op(8, i) {
				differs = true
			}
			if a.op(7, i).write {
				writes++
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same ops", wl.name)
		}
		if got := float64(writes) / 20_000; math.Abs(got-wl.writes) > 0.01 {
			t.Errorf("%s: %.3f of the ops write, want %.2f", wl.name, got, wl.writes)
		}
	}
}

// TestPagedGeneratorsKeepApart holds kv-paged to the shape that lets no
// op fail: generator g reads only node 2+g's keys, all of them.
func TestPagedGeneratorsKeepApart(t *testing.T) {
	w, _ := lookupWorkload("kv-paged")
	seen := make(map[int]bool)
	for i := 0; i < 200_000; i++ {
		key := w.op(7, i).key
		if got, want := w.home(key), 1+i%generators; got != want {
			t.Fatalf("op %d, of generator %d, reads key %d on kernel %d, want kernel %d", i, i%generators, key, got, want)
		}
		seen[key] = true
	}
	if len(seen) != w.keys {
		t.Errorf("%d of %d keys are ever read", len(seen), w.keys)
	}
}

func TestZipfHottestKey(t *testing.T) {
	w, _ := lookupWorkload("invoke-local")
	if p := w.cdf[0]; p < 0.017 || p > 0.019 {
		t.Errorf("hottest of %d keys draws %.4f of the ops, want about 1.8 %%", w.keys, p)
	}
}

func TestSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestManifest holds BENCHMARK.json to the tables the program runs on.
func TestManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var m struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in the manifest, %q in the program", i, m.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in the manifest, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			// The manifest bounds only the end-to-end list; what bound a
			// per-layer metric has is compare's alone.
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better || (bounded && g.Bound != d.bound) {
				t.Errorf("%s metric %d: manifest %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end-to-end", m.EndToEnd, endToEndDefs, true)
	check("per-layer", m.PerLayer, perLayerDefs, false)
}
