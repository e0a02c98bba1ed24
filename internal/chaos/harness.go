// Package chaos is the blackbox half of the crash harness: it builds
// the real edennode binary, runs it as a child process over TCP
// loopback, SIGKILLs it (or lets an armed killpoint kill it) under
// invoke traffic, restarts it against the surviving store directory,
// and checks the paper's recovery promise — every reincarnation
// replays a consistent checkpoint.
//
// The invariants come from the acknowledged-write model: an incdur
// reply is a durability promise (value and checkpoint version were on
// stable storage before the reply), so after any crash the observed
// state must be at or beyond every acknowledged floor, versions must
// never run backwards across restarts, and rights restrictions on
// capabilities must keep holding. Any breach persists a JSON artifact
// naming the seed that reproduces the run.
package chaos

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Build compiles the edennode binary once per test process and returns
// its path. Tests that cannot build (no go tool) are skipped.
func Build(tb testing.TB) string {
	tb.Helper()
	buildOnce.Do(func() {
		goTool, err := exec.LookPath("go")
		if err != nil {
			buildErr = fmt.Errorf("go toolchain not available: %w", err)
			return
		}
		dir, err := os.MkdirTemp("", "eden-chaos-bin-")
		if err != nil {
			buildErr = err
			return
		}
		bin := filepath.Join(dir, "edennode")
		cmd := exec.Command(goTool, "build", "-o", bin, "eden/cmd/edennode")
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("build edennode: %v\n%s", err, out)
			return
		}
		buildPath = bin
	})
	if buildErr != nil {
		tb.Skip(buildErr)
	}
	return buildPath
}

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// FreePort reserves a loopback address for a node to listen on.
func FreePort(tb testing.TB) string {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// NodeOpts configures one edennode child process.
type NodeOpts struct {
	// Node is the node number; Listen its TCP address.
	Node   uint32
	Listen string
	// Peers is the -peers flag value ("" for none).
	Peers string
	// StoreDir is the file store directory — the state that survives a
	// kill.
	StoreDir string
	// Args are extra command-line flags (fault injection etc.).
	Args []string
	// Env are extra environment entries (killpoint arming etc.).
	Env []string
}

// Proc is one running edennode child and its console.
type Proc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser

	mu  sync.Mutex
	out strings.Builder

	waitOnce sync.Once
	waitErr  error
}

// StartNode launches an edennode child process. The caller owns its
// lifetime; a test cleanup reaps it if the test forgets.
func StartNode(tb testing.TB, bin string, opts NodeOpts) *Proc {
	tb.Helper()
	args := []string{
		"-node", fmt.Sprint(opts.Node),
		"-listen", opts.Listen,
	}
	if opts.Peers != "" {
		args = append(args, "-peers", opts.Peers)
	}
	if opts.StoreDir != "" {
		args = append(args, "-store", opts.StoreDir)
	}
	args = append(args, opts.Args...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), opts.Env...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		tb.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		tb.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	p := &Proc{cmd: cmd, stdin: stdin}
	if err := cmd.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		_ = stdin.Close()
		_ = cmd.Process.Kill()
		p.reap()
	})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.mu.Lock()
			p.out.WriteString(sc.Text())
			p.out.WriteString("\n")
			p.mu.Unlock()
		}
	}()
	return p
}

// Send writes one console command line.
func (p *Proc) Send(line string) {
	_, _ = io.WriteString(p.stdin, line+"\n")
}

// Expect polls the accumulated console output for the pattern and
// returns its first capture group (or the full match).
func (p *Proc) Expect(tb testing.TB, re *regexp.Regexp, timeout time.Duration) string {
	tb.Helper()
	deadline := time.Now().Add(timeout)
	for {
		out := p.Output()
		if m := re.FindStringSubmatch(out); m != nil {
			if len(m) > 1 {
				return m[1]
			}
			return m[0]
		}
		if time.Now().After(deadline) {
			tb.Fatalf("console never matched %v; output so far:\n%s", re, out)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Output snapshots everything the process has printed.
func (p *Proc) Output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// Tail returns the last n bytes of output, for breach artifacts.
func (p *Proc) Tail(n int) string {
	out := p.Output()
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Kill SIGKILLs the process — the crash the checkpoint story must
// survive — and waits for the corpse.
func (p *Proc) Kill(tb testing.TB) {
	tb.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		tb.Fatalf("kill: %v", err)
	}
	p.reap()
}

// WaitExit waits for the process to exit on its own (an armed
// killpoint firing) and returns its exit code.
func (p *Proc) WaitExit(tb testing.TB, timeout time.Duration) int {
	tb.Helper()
	done := make(chan struct{})
	go func() {
		p.reap()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		tb.Fatalf("process did not exit within %v; output:\n%s", timeout, p.Tail(2000))
	}
	return p.cmd.ProcessState.ExitCode()
}

func (p *Proc) reap() {
	p.waitOnce.Do(func() { p.waitErr = p.cmd.Wait() })
}

// ModelState is the plain snapshot of the invariant model, as it
// appears in breach artifacts.
type ModelState struct {
	// AckedValue/AckedVersion are the highest value and checkpoint
	// version any acknowledged incdur reported: durable by contract.
	AckedValue   uint64 `json:"acked_value"`
	AckedVersion uint64 `json:"acked_version"`
	// ObservedValue/ObservedVersion are from the latest post-restart
	// observation; versions must never run backwards across restarts.
	ObservedValue   uint64 `json:"observed_value"`
	ObservedVersion uint64 `json:"observed_version"`
	// Acks counts acknowledged durable writes.
	Acks uint64 `json:"acks"`
}

// Model tracks the acknowledged-write floors the blackbox loop checks
// after every restart. Safe for concurrent traffic workers.
type Model struct {
	mu sync.Mutex
	s  ModelState
}

// Ack records one acknowledged incdur reply.
func (m *Model) Ack(value, version uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.s.Acks++
	if value > m.s.AckedValue {
		m.s.AckedValue = value
	}
	if version > m.s.AckedVersion {
		m.s.AckedVersion = version
	}
}

// Observe checks one post-restart observation against floor, the
// model's Snapshot from before the observing read was sent, and folds
// it in. Only writes acknowledged by then must be visible: traffic that
// keeps running may ack a write the read preceded. A non-nil error is
// an invariant breach.
func (m *Model) Observe(floor ModelState, value, version uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if value < floor.AckedValue {
		return fmt.Errorf("lost acknowledged writes: observed value %d < acked floor %d", value, floor.AckedValue)
	}
	if version < floor.AckedVersion {
		return fmt.Errorf("lost acknowledged checkpoint: observed version %d < acked floor %d", version, floor.AckedVersion)
	}
	if version < m.s.ObservedVersion {
		return fmt.Errorf("version ran backwards across restart: %d after %d", version, m.s.ObservedVersion)
	}
	m.s.ObservedValue, m.s.ObservedVersion = value, version
	return nil
}

// Snapshot returns a copy for artifacts.
func (m *Model) Snapshot() ModelState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s
}

// Breach is the artifact persisted when an invariant fails: everything
// needed to reproduce (the seed) and to diagnose (model vs observed,
// the node's console tail).
type Breach struct {
	Seed       int64      `json:"seed"`
	Cycle      int        `json:"cycle"`
	Reason     string     `json:"reason"`
	Model      ModelState `json:"model"`
	NodeOutput string     `json:"node_output"`
	Time       string     `json:"time"`
}

// ArtifactDir is where breach artifacts land: $EDEN_CHAOS_AUDIT_DIR if
// set (CI uploads it), the system temp directory otherwise.
func ArtifactDir() string {
	if dir := os.Getenv("EDEN_CHAOS_AUDIT_DIR"); dir != "" {
		return dir
	}
	return os.TempDir()
}

// WriteBreach persists one breach artifact, named by its seed so the
// failing schedule can be replayed, and returns the path.
func WriteBreach(tb testing.TB, b Breach) string {
	tb.Helper()
	b.Time = time.Now().UTC().Format(time.RFC3339)
	dir := ArtifactDir()
	_ = os.MkdirAll(dir, 0o755)
	path := filepath.Join(dir, fmt.Sprintf("eden-breach-seed%d-%d.json", b.Seed, time.Now().UnixNano()))
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		tb.Fatalf("encode breach: %v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatalf("persist breach: %v", err)
	}
	tb.Logf("invariant breach artifact: %s", path)
	return path
}

// EnvInt reads an integer knob from the environment with a default —
// how CI scales cycle counts without editing tests.
func EnvInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// ParseStat decodes an incdur/stat reply payload: value(8) |
// checkpoint version(8).
func ParseStat(data []byte) (value, version uint64, err error) {
	if len(data) != 16 {
		return 0, 0, fmt.Errorf("stat reply is %d bytes, want 16", len(data))
	}
	for i := 0; i < 8; i++ {
		value = value<<8 | uint64(data[i])
		version = version<<8 | uint64(data[8+i])
	}
	return value, version, nil
}

// ParseStatHex decodes the console's hex rendering of a stat reply.
func ParseStatHex(s string) (value, version uint64, err error) {
	if len(s) != 32 {
		return 0, 0, fmt.Errorf("stat hex is %d chars, want 32", len(s))
	}
	value, err = strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return 0, 0, err
	}
	version, err = strconv.ParseUint(s[16:], 16, 64)
	return value, version, err
}
