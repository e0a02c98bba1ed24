// Command edenvet runs Eden's custom invariant analyzers over the
// module: it loads every package under the module root, type-checks
// it with only the standard library, applies the suite in
// internal/analysis, honors //edenvet:ignore suppressions, and exits
// non-zero if any unsuppressed diagnostic remains.
//
// Usage:
//
//	edenvet            # analyze the module containing the cwd
//	edenvet ./...      # same
//	edenvet <dir>      # analyze the module rooted at <dir>
//	edenvet -json ./...    # machine-readable report on stdout
//	edenvet -gha ./...     # GitHub Actions ::error annotations
//	edenvet -strict ./...  # stale suppressions are failures too
//
// Diagnostics are printed as file:line: analyzer: message.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"eden/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit a JSON report on stdout instead of text")
	gha := flag.Bool("gha", false, "emit GitHub Actions ::error annotations alongside findings")
	strict := flag.Bool("strict", false, "exit non-zero on stale suppressions, not just findings")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: edenvet [-json] [-gha] [-strict] [./... | module-dir]\n\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	os.Exit(run(flag.Args(), options{json: *jsonOut, gha: *gha, strict: *strict}))
}

type options struct {
	json   bool
	gha    bool
	strict bool
}

// jsonFinding is one diagnostic in the -json report.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonSuppression is one //edenvet:ignore in the -json report; stale
// ones carry "stale": true.
type jsonSuppression struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
	Stale    bool   `json:"stale,omitempty"`
}

// jsonReport is the -json output: everything the text form prints, in
// one machine-readable document.
type jsonReport struct {
	Packages     int               `json:"packages"`
	Findings     []jsonFinding     `json:"findings"`
	Suppressed   []jsonFinding     `json:"suppressed"`
	Suppressions []jsonSuppression `json:"suppressions"`
}

func run(args []string, opts options) int {
	root := "."
	if len(args) > 0 && args[0] != "./..." && args[0] != "..." {
		root = strings.TrimSuffix(args[0], "/...")
	}
	root, err := findModuleRoot(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edenvet: %v\n", err)
		return 2
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edenvet: %v\n", err)
		return 2
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "edenvet: %v\n", err)
		return 2
	}

	var active, suppressed []analysis.Diagnostic
	var sups, unused []analysis.Suppression
	perAnalyzer := make(map[string]int)
	for _, pkg := range pkgs {
		diags := analysis.Run(pkg, analysis.All())
		ps, bad := analysis.CollectSuppressions(pkg)
		a, s, u := analysis.ApplySuppressions(diags, ps)
		active = append(active, a...)
		active = append(active, bad...)
		suppressed = append(suppressed, s...)
		sups = append(sups, ps...)
		unused = append(unused, u...)
	}

	if opts.json {
		report := jsonReport{Packages: len(pkgs), Findings: []jsonFinding{}, Suppressed: []jsonFinding{}, Suppressions: []jsonSuppression{}}
		for _, d := range active {
			report.Findings = append(report.Findings, jsonFinding{
				File: relPath(root, d.Pos.Filename), Line: d.Pos.Line,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		for _, d := range suppressed {
			report.Suppressed = append(report.Suppressed, jsonFinding{
				File: relPath(root, d.Pos.Filename), Line: d.Pos.Line,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		staleAt := make(map[string]bool, len(unused))
		for _, s := range unused {
			staleAt[fmt.Sprintf("%s:%d", s.Pos.Filename, s.Pos.Line)] = true
		}
		for _, s := range sups {
			report.Suppressions = append(report.Suppressions, jsonSuppression{
				File: relPath(root, s.Pos.Filename), Line: s.Pos.Line,
				Analyzer: s.Analyzer, Reason: s.Reason,
				Stale: staleAt[fmt.Sprintf("%s:%d", s.Pos.Filename, s.Pos.Line)],
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "edenvet: %v\n", err)
			return 2
		}
		return exitCode(active, unused, opts)
	}

	for _, d := range active {
		fmt.Println(render(root, d))
		perAnalyzer[d.Analyzer]++
		if opts.gha {
			annotate(root, d.Pos.Filename, d.Pos.Line, fmt.Sprintf("%s: %s", d.Analyzer, d.Message))
		}
	}
	if opts.gha && opts.strict {
		for _, s := range unused {
			annotate(root, s.Pos.Filename, s.Pos.Line,
				fmt.Sprintf("stale suppression: //edenvet:ignore %s %s matches nothing", s.Analyzer, s.Reason))
		}
	}

	if len(suppressed) > 0 {
		fmt.Printf("\n%d finding(s) suppressed by //edenvet:ignore:\n", len(suppressed))
		for _, d := range suppressed {
			fmt.Printf("  %s\n", render(root, d))
		}
	}
	if len(unused) > 0 {
		fmt.Printf("\n%d suppression(s) matched nothing (stale?):\n", len(unused))
		for _, s := range unused {
			fmt.Printf("  %s:%d: //edenvet:ignore %s %s\n", relPath(root, s.Pos.Filename), s.Pos.Line, s.Analyzer, s.Reason)
		}
	}
	fmt.Printf("\nedenvet: %d package(s), %d finding(s), %d suppressed\n",
		len(pkgs), len(active), len(suppressed))
	for _, a := range analysis.All() {
		if n := perAnalyzer[a.Name]; n > 0 {
			fmt.Printf("  %-14s %d\n", a.Name, n)
		}
	}

	return exitCode(active, unused, opts)
}

// exitCode: findings always fail; stale suppressions fail under
// -strict (a suppression matching nothing is a lie in the source).
func exitCode(active []analysis.Diagnostic, unused []analysis.Suppression, opts options) int {
	if len(active) > 0 {
		return 1
	}
	if opts.strict && len(unused) > 0 {
		return 1
	}
	return 0
}

// annotate prints one GitHub Actions workflow command so the finding
// shows inline on the PR diff. The file path is workspace-relative,
// which is what the annotation machinery expects.
func annotate(root, file string, line int, msg string) {
	fmt.Printf("::error file=%s,line=%d::%s\n", relPath(root, file), line, escapeGHA(msg))
}

// escapeGHA escapes the characters the workflow-command parser treats
// specially in the message portion.
func escapeGHA(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func render(root string, d analysis.Diagnostic) string {
	return fmt.Sprintf("%s:%d: %s: %s", relPath(root, d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

// findModuleRoot walks upward from dir to the directory containing
// go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod at or above %s", dir)
		}
		d = parent
	}
}
