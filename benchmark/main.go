// Command benchmark is the repository's benchmark: four workloads that
// each make one group of Eden's layers do most of the work, end-to-end
// metrics measured on bare kernels, and a traced run plus layer probes
// that say which layer the time went to. README.md in this
// directory explains the workloads, the metrics and how they interact.
//
//	benchmark                              every workload, both runs, every metric
//	benchmark -workload kv-mixed -trace 0  one workload's end-to-end metrics
//	benchmark compare A B                  the before/after table
//
// The last line of standard output is always one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: benchmark compare A B   (each a result file or a directory of them)")
			os.Exit(2)
		}
		if err := compare(os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "all", "workload to run: invoke-local, invoke-remote, kv-mixed, kv-paged, all of these four, or kv-paged-shared")
	seed := flag.Uint64("seed", 1981, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "nominal length of the measured window; it fixes the op count, which is what a run holds constant")
	trace := flag.String("trace", "both", "0: bare run, end-to-end metrics; 1: traced run and probes, per-layer metrics; both")
	out := flag.String("out", "out", "directory for results and traces")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != "0" && *trace != "1" && *trace != "both") {
		flag.Usage()
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	cleanOnSignal(*out)

	// The summary is the contract's result line: with -trace 0 exactly
	// the end-to-end metrics, with -trace 1 exactly the per-layer ones
	// (the bare run measures the timings too, and prints them, but they
	// belong to the per-layer list). With several workloads a metric is
	// prefixed with its workload.
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metric)}
	declared := map[string][]metricDef{"0": endToEndDefs, "1": perLayerDefs, "both": append(endToEndDefs, perLayerDefs...)}[*trace]
	var results []*result
	report := func(r *result, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		r.print()
		results = append(results, r)
		summary.Attempted += r.Attempted
		summary.Failed += r.Failed
		// More than one op in a hundred failing is not a measurement.
		if r.Failed*100 > r.Attempted {
			summary.Correct = false
		}
		for _, d := range declared {
			name := d.name
			if len(names) > 1 {
				name = r.Workload + "/" + name
			}
			// With both runs, the bare run's timings stand: the traced
			// run's come from a quarter of the ops.
			_, set := summary.Metrics[name]
			if m, ok := r.Metrics[d.name]; ok && !set {
				summary.Metrics[name] = m
			}
		}
	}
	for _, n := range names {
		w, err := lookupWorkload(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if *trace != "1" {
			report(endToEnd(w, *seed, *seconds, *out))
		}
		if *trace != "0" {
			report(perLayer(w, *seed, *seconds, *out))
		}
	}
	file := filepath.Join(*out, fmt.Sprintf("result-%s-seed%d-trace%s.json", *name, *seed, *trace))
	if b, err := json.MarshalIndent(results, "", " "); err != nil || os.WriteFile(file, b, 0o644) != nil {
		fmt.Fprintln(os.Stderr, "benchmark: cannot write", file)
		os.Exit(1)
	}
	if !summary.Correct {
		fmt.Fprintln(os.Stderr, "benchmark: more than 1 % of the ops failed")
		os.Exit(1)
	}
	line, _ := json.Marshal(summary)
	fmt.Println(string(line))
}
