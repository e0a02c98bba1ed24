package analysis

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// loadFixture type-checks one testdata/src package under a synthetic
// import path, resolving eden/... imports against the real module.
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", dir), "eden/fixtures/"+dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

// wantComments extracts the fixture expectations: every trailing
// comment of the form
//
//	// want "substring"
//
// demands at least one diagnostic on its line whose message contains
// the substring; any diagnostic on a line without one is unexpected.
func wantComments(t *testing.T, pkg *Package) map[int]string {
	t.Helper()
	wants := make(map[int]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				substr, err := strconv.Unquote(strings.TrimSpace(rest))
				if err != nil {
					t.Fatalf("%s: bad want comment %q: %v", pkg.Fset.Position(c.Pos()), c.Text, err)
				}
				wants[pkg.Fset.Position(c.Pos()).Line] = substr
			}
		}
	}
	return wants
}

// TestFixtures runs each analyzer over its fixture package and checks
// the active findings against the // want comments: every expectation
// must be met, nothing beyond the expectations may fire, fixture
// suppressions must be well-formed, must absorb their finding (pinning
// false-positive behavior), and must not be stale.
func TestFixtures(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer *Analyzer
	}{
		{"capleak", CapLeak},
		{"rightsgate", RightsGate},
		{"lockhold", LockHold},
		{"sentinelwrap", SentinelWrap},
		{"timeoutprop", TimeoutProp},
		{"telemetrytag", TelemetryTag},
		{"accesspurity", AccessPurity},
		{"killpointcover", KillpointCover},
		{"returngives", ReturnGives},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg := loadFixture(t, tc.dir)
			wants := wantComments(t, pkg)
			if len(wants) == 0 {
				t.Fatalf("fixture %s declares no expectations", tc.dir)
			}
			sups, bad := CollectSuppressions(pkg)
			for _, d := range bad {
				t.Errorf("malformed fixture suppression: %s", d)
			}
			diags, _, stale := ApplySuppressions(Run(pkg, []*Analyzer{tc.analyzer}), sups)
			for _, s := range stale {
				t.Errorf("stale fixture suppression at %s: %s %s", s.Pos, s.Analyzer, s.Reason)
			}

			matched := make(map[int]bool)
			for _, d := range diags {
				substr, expected := wants[d.Pos.Line]
				if !expected {
					t.Errorf("unexpected diagnostic at %s:%d: %s", d.Pos.Filename, d.Pos.Line, d.Message)
					continue
				}
				if !strings.Contains(d.Message, substr) {
					t.Errorf("line %d: diagnostic %q does not contain %q", d.Pos.Line, d.Message, substr)
					continue
				}
				matched[d.Pos.Line] = true
			}
			for line, substr := range wants {
				if !matched[line] {
					t.Errorf("line %d: expected a diagnostic containing %q, got none", line, substr)
				}
			}
		})
	}
}

// TestSuppressions checks the //edenvet:ignore machinery end to end on
// its own fixture: a reasoned suppression absorbs its finding, a
// suppression matching nothing is reported stale, and a directive
// without a reason is malformed.
func TestSuppressions(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	diags := Run(pkg, All())
	sups, bad := CollectSuppressions(pkg)

	if len(bad) != 1 || !strings.Contains(bad[0].Message, "malformed suppression") {
		t.Fatalf("want exactly one malformed-suppression diagnostic, got %v", bad)
	}
	active, suppressed, unused := ApplySuppressions(diags, sups)
	if len(active) != 0 {
		t.Errorf("want no active findings, got %v", active)
	}
	if len(suppressed) != 1 || suppressed[0].Analyzer != "capleak" {
		t.Errorf("want exactly the capleak finding suppressed, got %v", suppressed)
	}
	if len(unused) != 1 || unused[0].Analyzer != "timeoutprop" {
		t.Errorf("want exactly the timeoutprop suppression stale, got %+v", unused)
	}
	for _, s := range sups {
		if s.Reason == "" {
			t.Errorf("suppression at %s parsed with empty reason", s.Pos)
		}
	}
}

// TestLoadAllCoversModule guards the driver's package discovery: the
// loader must see the kernel and the facade, and must not descend into
// testdata.
func TestLoadAllCoversModule(t *testing.T) {
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	seen := make(map[string]bool)
	for _, p := range pkgs {
		seen[p.Path] = true
		if strings.Contains(p.Path, "fixtures") || strings.Contains(p.Dir, "testdata") {
			t.Errorf("LoadAll descended into testdata: %s", p.Path)
		}
	}
	for _, want := range []string{"eden", "eden/internal/kernel", "eden/internal/analysis"} {
		if !seen[want] {
			t.Errorf("LoadAll missed %s (got %d packages)", want, len(pkgs))
		}
	}
}

// TestDiagnosticString pins the driver's canonical rendering.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "capleak", Message: "m"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line = 7
	if got, want := d.String(), "a/b.go:7: capleak: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
