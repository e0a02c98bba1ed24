package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// loadRuns reads the results in a result file, or in every result file
// of a directory, and returns each compared metric's values by workload.
// Only bare runs count: a traced run's timings come from a quarter of
// the ops.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
	}
	runs := make(map[string]map[string][]float64)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rs []result
		if err := json.Unmarshal(b, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rs {
			if _, bare := r.Metrics["setup_s"]; !bare {
				continue
			}
			if runs[r.Workload] == nil {
				runs[r.Workload] = make(map[string][]float64)
			}
			for _, d := range comparedDefs {
				if m, ok := r.Metrics[d.name]; ok {
					runs[r.Workload][d.name] = append(runs[r.Workload][d.name], m.Value)
				}
			}
		}
	}
	return runs, nil
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 { return ratio(iqr(v), median(v)) }

// iqr is the distance between the first and third quartile, with the
// quartiles Python's statistics.quantiles(v, n=4) gives. Fewer than two
// values have none.
func iqr(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(q float64) float64 { // the "exclusive" method: position q*(n+1), clamped, interpolated
		pos := q*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.75) - at(0.25)
}

// compare prints, per workload and metric, both sides' medians, B's
// ratio to A, the wider side's spread, the metric's bound and a verdict:
// unresolved when either side's own spread is wider than the bound,
// worse when B's median is worse than A's by more than the bound, else
// ok. Bound and spread are shares of the median, except for an absolute
// metric (fail_ratio), where they are differences.
func compare(a, b string) error {
	ra, err := loadRuns(a)
	if err != nil {
		return err
	}
	rb, err := loadRuns(b)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-14s %14s %3s %14s %3s %9s %7s %6s  %s\n",
		"workload", "metric", "A median", "n", "B median", "n", "B/A", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range comparedDefs {
			va, vb := ra[w.name][d.name], rb[w.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := mb > ma*(1+d.bound)
			if d.higher {
				worse = mb < ma*(1-d.bound)
			}
			sp := max(spread(va), spread(vb))
			if d.absolute {
				worse, sp = mb > ma+d.bound, max(iqr(va), iqr(vb))
			}
			verdict := "ok"
			switch {
			case sp > d.bound:
				verdict = "unresolved"
			case worse:
				verdict = "worse"
			}
			fmt.Printf("%-14s %-14s %14.6g %3d %14.6g %3d %9.4f %7.4f %6.3g  %s\n",
				w.name, d.name, ma, len(va), mb, len(vb), ratio(mb, ma), sp, d.bound, verdict)
		}
	}
	fmt.Println("B/A is B's median over A's (base: A). spread is the wider side's interquartile range over its median; for fail_ratio, spread and bound are differences.")
	return nil
}
