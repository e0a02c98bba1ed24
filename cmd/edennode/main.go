// Command edennode runs one Eden node as a standalone process over
// TCP, so a real multi-machine (or multi-process) Eden system can be
// assembled — the deployment shape of the paper's five-node prototype.
//
// Each node is told its number, listen address, and peers. A small
// line-oriented console on stdin drives it: create objects, invoke
// operations (on objects anywhere in the system), checkpoint, move,
// inspect. Capabilities print as hex tokens that can be pasted into
// another node's console — exactly the "pass a capability around"
// workflow of Eden.
//
// Example (three shells):
//
//	edennode -node 1 -listen 127.0.0.1:7001 -peers 2=127.0.0.1:7002,3=127.0.0.1:7003
//	edennode -node 2 -listen 127.0.0.1:7002 -peers 1=127.0.0.1:7001,3=127.0.0.1:7003
//	edennode -node 3 -listen 127.0.0.1:7003 -peers 1=127.0.0.1:7001,2=127.0.0.1:7002
//
//	node-1> create counter
//	cap 0000000100000000...
//	node-2> invoke 0000000100000000... inc
//	ok (1 bytes): 01
package main

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"eden/internal/capability"
	"eden/internal/editor"
	"eden/internal/efs"
	"eden/internal/faultstore"
	"eden/internal/kernel"
	"eden/internal/killpoint"
	"eden/internal/naming"
	"eden/internal/rights"
	"eden/internal/segment"
	"eden/internal/store"
	"eden/internal/telemetry"
	"eden/internal/transport"
)

func main() {
	node := flag.Uint("node", 1, "node number (unique in the system)")
	listen := flag.String("listen", "127.0.0.1:7001", "listen address")
	peers := flag.String("peers", "", "comma-separated peer list: num=host:port,...")
	storeDir := flag.String("store", "", "directory for file-backed long-term storage (default: in-memory)")
	name := flag.String("name", "", "node label (default: node-<num>)")
	metrics := flag.String("metrics", "", "serve telemetry over HTTP on this address (e.g. 127.0.0.1:9100); empty disables")
	sendq := flag.Int("sendq", 0, "per-peer send queue depth in frames (0 = transport default)")
	sendTimeout := flag.Duration("send-timeout", 0, "how long a unicast send blocks on a full queue before dropping (0 = transport default)")
	dialTimeout := flag.Duration("dial-timeout", 0, "bound on one TCP dial attempt to a peer (0 = transport default)")
	redialBackoff := flag.Duration("redial-backoff", 0, "initial pause after a failed dial, doubling with jitter per failure (0 = transport default)")
	readers := flag.Int("readers", 0, "per-object reader pool: concurrent read-only processes of one object (0 = kernel default)")
	asyncPending := flag.Int("async-pending", 0, "async dispatcher pending-invocation table cap; submissions past it are shed (0 = kernel default)")
	asyncWorkers := flag.Int("async-workers", 0, "async dispatcher worker-pool size (0 = kernel default)")
	replicas := flag.Bool("replicas", false, "serve stale-tolerant reads from checkpoint shadows of objects this node backs up")
	recoverGrace := flag.Duration("recover-grace", 10*time.Second, "refuse failure-recovery promotion of a backed-up object while its home shipped a checkpoint (or this node booted) within this window; 0 promotes immediately")
	faultSeed := flag.Int64("fault-seed", 0, "seed for the fault-injection schedule (0 = faultstore default); faults only fire with a fault probability or -fault-sync-lie set")
	faultFail := flag.Float64("fault-fail-prob", 0, "probability a store operation fails with an injected media error")
	faultDelay := flag.Float64("fault-delay-prob", 0, "probability a store operation is delayed")
	faultMaxDelay := flag.Duration("fault-max-delay", 0, "bound on one injected store delay (0 = faultstore default)")
	faultTorn := flag.Float64("fault-torn-prob", 0, "probability a store Put tears: success reported, corrupt record written")
	faultSyncLie := flag.Bool("fault-sync-lie", false, "acknowledge store writes before they are durable; a crash loses them")
	flag.Parse()

	// A crash harness plants a deterministic death through the
	// environment; an unarmed process pays one atomic load per
	// boundary.
	if p, armed := killpoint.ArmFromEnv(); armed {
		fmt.Printf("killpoint armed: %s (after %s passes)\n", p, os.Getenv(killpoint.EnvAfter))
	}

	if *name == "" {
		*name = fmt.Sprintf("node-%d", *node)
	}
	tr, err := transport.NewTCPWithConfig(uint32(*node), *listen, transport.Config{
		QueueDepth:     *sendq,
		EnqueueTimeout: *sendTimeout,
		DialTimeout:    *dialTimeout,
		RedialBackoff:  *redialBackoff,
	})
	if err != nil {
		fatal("listen: %v", err)
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			numAddr := strings.SplitN(strings.TrimSpace(p), "=", 2)
			if len(numAddr) != 2 {
				fatal("bad peer %q (want num=host:port)", p)
			}
			n, err := strconv.ParseUint(numAddr[0], 10, 32)
			if err != nil {
				fatal("bad peer number %q: %v", numAddr[0], err)
			}
			tr.AddPeer(uint32(n), numAddr[1])
		}
	}

	var tel *telemetry.Registry
	if *metrics != "" {
		tel = telemetry.New()
	}

	var st store.Store
	if *storeDir != "" {
		f, err := store.NewFile(*storeDir)
		if err != nil {
			fatal("store: %v", err)
		}
		defer f.Close() // after the kernel's: waits for any batch in flight
		st = f
	}
	if *faultFail > 0 || *faultDelay > 0 || *faultTorn > 0 || *faultSyncLie {
		if st == nil {
			st = store.NewMemory()
		}
		st = faultstore.Wrap(st, faultstore.Config{
			Seed:      *faultSeed,
			FailProb:  *faultFail,
			DelayProb: *faultDelay,
			MaxDelay:  *faultMaxDelay,
			TornProb:  *faultTorn,
			SyncLie:   *faultSyncLie,
			Telemetry: tel,
		})
		fmt.Printf("faultstore armed: seed=%d fail=%g delay=%g torn=%g sync-lie=%v\n",
			*faultSeed, *faultFail, *faultDelay, *faultTorn, *faultSyncLie)
	}

	reg := kernel.NewRegistry()
	if err := naming.RegisterType(reg); err != nil {
		fatal("%v", err)
	}
	if err := efs.RegisterType(reg); err != nil {
		fatal("%v", err)
	}
	if err := editor.RegisterBaseType(reg); err != nil {
		fatal("%v", err)
	}
	if err := reg.Register(counterType()); err != nil {
		fatal("%v", err)
	}
	cfg := kernel.DefaultConfig(uint32(*node), *name)
	cfg.ReaderPool = *readers
	cfg.AsyncPending = *asyncPending
	cfg.AsyncWorkers = *asyncWorkers
	cfg.ReplicaServe = *replicas
	cfg.RecoverGrace = *recoverGrace
	if tel != nil {
		cfg.Telemetry = tel
		tr.SetTelemetry(tel)
	}
	k := kernel.New(cfg, tr, reg, st)
	defer k.Close()
	if *replicas {
		fmt.Println("replica serving enabled: stale-tolerant reads served from checkpoint shadows")
	}
	if tel != nil {
		addr, err := serveMetrics(*metrics, tel, k)
		if err != nil {
			fatal("metrics: %v", err)
		}
		fmt.Printf("telemetry on http://%s/metrics (traces at /trace, replicas at /replicas)\n", addr)
	}

	fmt.Printf("%s listening on %s; peers: %v\n", *name, tr.Addr(), tr.Peers())
	fmt.Println(`commands: create <type> | invoke <cap> <op> [hexdata] | rinvoke <cap> <op> [hexdata] |
          ainvoke <cap> <op> [hexdata] | checksite <cap> <local|remote|replicated> [site,...] |
          types | ls | checkpoint <cap> | passivate <cap> | move <cap> <node> | stats |
          describe <cap> | show <cap> | where <cap> | quit`)
	console(k)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// serveMetrics exposes the node's telemetry registry over HTTP in the
// expvar style: GET /metrics returns the full snapshot as JSON, GET
// /trace the recent invocation spans (optionally ?trace=<id> for one
// invocation), GET /replicas the node's replica-serving state (one
// entry per backed-up object: home, serving floor, live shadow). It
// returns the bound address.
func serveMetrics(addr string, tel *telemetry.Registry, k *kernel.Kernel) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tel.Snapshot())
	})
	mux.HandleFunc("/replicas", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(k.Replicas())
	})
	mux.HandleFunc("/killpoints", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(killpoint.Counters())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		spans := tel.Spans()
		if q := r.URL.Query().Get("trace"); q != "" {
			id, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			spans = tel.SpansFor(id)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(spans)
	})
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}

// counterType gives every node a demo type to play with. It extends
// the editor's displayable base type, inheriting the default "display"
// operation the console's show command invokes.
func counterType() *kernel.TypeManager {
	tm := kernel.NewType("counter")
	tm.Extends = editor.BaseTypeName
	tm.Init = func(o *kernel.Object) error {
		return o.Update(func(r *segment.Representation) error {
			r.SetData("n", make([]byte, 8))
			return nil
		})
	}
	tm.Limit("write", 1)
	tm.Op(kernel.Operation{
		Name:  "inc",
		Class: "write",
		Handler: func(c *kernel.Call) {
			var out [8]byte
			_ = c.Self().Update(func(r *segment.Representation) error {
				b, _ := r.Data("n")
				binary.BigEndian.PutUint64(out[:], binary.BigEndian.Uint64(b)+1)
				r.SetData("n", out[:])
				return nil
			})
			c.Return(out[:])
		},
	})
	tm.Op(kernel.Operation{
		Name:     "get",
		ReadOnly: true,
		Handler: func(c *kernel.Call) {
			c.Self().View(func(r *segment.Representation) {
				b, _ := r.Data("n")
				c.Return(b)
			})
		},
	})
	// incdur is inc with a durability promise: the increment is
	// checkpointed before the reply, so an acknowledged incdur must
	// survive any crash. Crash harnesses build their no-lost-writes
	// invariant on it. Reply: value(8) | checkpoint version(8).
	tm.Op(kernel.Operation{
		Name:  "incdur",
		Class: "write",
		Handler: func(c *kernel.Call) {
			var out [8]byte
			err := c.Self().Update(func(r *segment.Representation) error {
				b, _ := r.Data("n")
				binary.BigEndian.PutUint64(out[:], binary.BigEndian.Uint64(b)+1)
				r.SetData("n", out[:])
				return nil
			})
			if err == nil {
				err = c.Self().Checkpoint()
			}
			if err != nil {
				c.Fail("incdur: %v", err)
				return
			}
			var ver [8]byte
			binary.BigEndian.PutUint64(ver[:], c.Self().Version())
			c.Return(append(out[:], ver[:]...))
		},
	})
	// stat reports value(8) | checkpoint version(8) without mutating
	// anything — the harness's post-restart observation.
	tm.Op(kernel.Operation{
		Name:     "stat",
		ReadOnly: true,
		Handler: func(c *kernel.Call) {
			var b [16]byte
			c.Self().View(func(r *segment.Representation) {
				n, _ := r.Data("n")
				copy(b[:8], n)
			})
			binary.BigEndian.PutUint64(b[8:], c.Self().Version())
			c.Return(b[:])
		},
	})
	// secret requires the first type-defined rights bit, so a harness
	// can verify rights restriction survives crash/reincarnation: a
	// capability restricted to Invoke must keep failing here.
	tm.Op(kernel.Operation{
		Name:     "secret",
		ReadOnly: true,
		Rights:   rights.Type(0),
		Handler: func(c *kernel.Call) {
			c.Return([]byte("secret"))
		},
	})
	return tm
}

// console runs the operator REPL.
func console(k *kernel.Kernel) {
	sc := bufio.NewScanner(os.Stdin)
	var asyncSeq uint64 // numbers ainvoke submissions for their completion lines
	prompt := func() { fmt.Printf("%s> ", k.Name()) }
	for prompt(); sc.Scan(); prompt() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return
		case "types":
			for _, n := range k.Types().Names() {
				fmt.Println(" ", n)
			}
		case "ls":
			for _, id := range k.ActiveObjects() {
				fmt.Println(" ", id)
			}
		case "stats":
			fmt.Printf("  %+v\n", k.Stats())
			fmt.Printf("  locator: %+v\n", k.Locator().Stats())
		case "create":
			if len(fields) != 2 {
				fmt.Println("  usage: create <type>")
				continue
			}
			cap, err := k.Create(fields[1], nil)
			if err != nil {
				fmt.Println(" ", err)
				continue
			}
			fmt.Printf("  cap %s\n", hex.EncodeToString(cap.Encode(nil)))
		// rinvoke is invoke with replica tolerance: the read may be
		// served from a checkpoint shadow at a checksite, trading
		// currency for latency and availability.
		case "invoke", "rinvoke":
			if len(fields) < 3 {
				fmt.Printf("  usage: %s <cap> <op> [hexdata]\n", fields[0])
				continue
			}
			cap, err := parseCap(fields[1])
			if err != nil {
				fmt.Println(" ", err)
				continue
			}
			var data []byte
			if len(fields) > 3 {
				data, err = hex.DecodeString(fields[3])
				if err != nil {
					fmt.Println("  bad hex data:", err)
					continue
				}
			}
			rep, err := k.Invoke(cap, fields[2], data, nil, &kernel.InvokeOptions{
				Timeout:      k.Config().DefaultTimeout,
				AllowReplica: fields[0] == "rinvoke",
			})
			if err != nil {
				fmt.Println(" ", err)
				continue
			}
			fmt.Printf("  ok (%d bytes): %s\n", len(rep.Data), hex.EncodeToString(rep.Data))
			for _, c := range rep.Caps {
				fmt.Printf("  cap %s\n", hex.EncodeToString(c.Encode(nil)))
			}
		// ainvoke submits through the async dispatcher and returns the
		// prompt immediately; the completion prints when it arrives.
		case "ainvoke":
			if len(fields) < 3 {
				fmt.Println("  usage: ainvoke <cap> <op> [hexdata]")
				continue
			}
			cap, err := parseCap(fields[1])
			if err != nil {
				fmt.Println(" ", err)
				continue
			}
			var data []byte
			if len(fields) > 3 {
				data, err = hex.DecodeString(fields[3])
				if err != nil {
					fmt.Println("  bad hex data:", err)
					continue
				}
			}
			asyncSeq++
			seq := asyncSeq
			p := k.InvokeAsync(cap, fields[2], data, nil, &kernel.InvokeOptions{
				Timeout: k.Config().DefaultTimeout,
			})
			fmt.Printf("  async #%d submitted\n", seq)
			go func() {
				rep, err := p.Wait()
				if err != nil {
					fmt.Printf("\n  async #%d failed: %v\n", seq, err)
					return
				}
				fmt.Printf("\n  async #%d ok (%d bytes): %s\n", seq, len(rep.Data), hex.EncodeToString(rep.Data))
			}()
		case "checksite":
			if len(fields) < 3 {
				fmt.Println("  usage: checksite <cap> <local|remote|replicated> [site,...]")
				continue
			}
			var level kernel.Reliability
			switch fields[2] {
			case "local":
				level = kernel.RelLocal
			case "remote":
				level = kernel.RelRemote
			case "replicated":
				level = kernel.RelReplicated
			default:
				fmt.Println("  bad level:", fields[2])
				continue
			}
			var sites []uint32
			if len(fields) > 3 {
				ok := true
				for _, s := range strings.Split(fields[3], ",") {
					n, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
					if err != nil {
						fmt.Println("  bad site number:", err)
						ok = false
						break
					}
					sites = append(sites, uint32(n))
				}
				if !ok {
					continue
				}
			}
			withObject(k, fields[1], func(o *kernel.Object) {
				if err := o.SetChecksite(level, sites...); err != nil {
					fmt.Println(" ", err)
				} else {
					fmt.Printf("  checksite %s %v\n", fields[2], sites)
				}
			})
		case "checkpoint":
			if len(fields) != 2 {
				fmt.Println("  usage: checkpoint <cap>")
				continue
			}
			withObject(k, fields[1], func(o *kernel.Object) {
				if err := o.Checkpoint(); err != nil {
					fmt.Println(" ", err)
				} else {
					fmt.Printf("  checkpointed at version %d\n", o.Version())
				}
			})
		case "passivate":
			if len(fields) != 2 {
				fmt.Println("  usage: passivate <cap>")
				continue
			}
			withObject(k, fields[1], func(o *kernel.Object) {
				if err := o.Passivate(); err != nil {
					fmt.Println(" ", err)
				} else {
					fmt.Printf("  passivated at version %d\n", o.Version())
				}
			})
		case "move":
			if len(fields) != 3 {
				fmt.Println("  usage: move <cap> <node>")
				continue
			}
			dest, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				fmt.Println("  bad node number:", err)
				continue
			}
			withObject(k, fields[1], func(o *kernel.Object) {
				if err := <-o.Move(uint32(dest)); err != nil {
					fmt.Println(" ", err)
				} else {
					fmt.Printf("  moved to node %d\n", dest)
				}
			})
		case "show":
			if len(fields) != 2 {
				fmt.Println("  usage: show <cap>")
				continue
			}
			cap, err := parseCap(fields[1])
			if err != nil {
				fmt.Println(" ", err)
				continue
			}
			for _, line := range strings.Split(editor.Render(k, cap), "\n") {
				fmt.Println("  " + line)
			}
		// where reports this node's bookkeeping for the object — active
		// incarnation, forwarding pointer, surviving move intent, stored
		// record — so a harness can assert exactly one node is the home.
		case "where":
			if len(fields) != 2 {
				fmt.Println("  usage: where <cap>")
				continue
			}
			cap, err := parseCap(fields[1])
			if err != nil {
				fmt.Println(" ", err)
				continue
			}
			fmt.Printf("  where %s\n", k.DebugObjectState(cap.ID()))
		case "describe":
			if len(fields) != 2 {
				fmt.Println("  usage: describe <cap>")
				continue
			}
			withObject(k, fields[1], func(o *kernel.Object) {
				a := o.Describe()
				fmt.Printf("  name %v type %q version %d frozen %v\n", a.Name, a.TypeName, a.Version, a.Frozen)
				for _, s := range a.Segments {
					fmt.Printf("    segment %-20q %-5s %d\n", s.Name, s.Kind, s.Len)
				}
			})
		default:
			fmt.Println("  unknown command:", fields[0])
		}
	}
}

func parseCap(s string) (capability.Capability, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return capability.Capability{}, fmt.Errorf("bad capability hex: %v", err)
	}
	cap, rest, err := capability.Decode(raw)
	if err != nil || len(rest) != 0 {
		return capability.Capability{}, fmt.Errorf("bad capability: %v", err)
	}
	return cap, nil
}

func withObject(k *kernel.Kernel, capHex string, fn func(o *kernel.Object)) {
	cap, err := parseCap(capHex)
	if err != nil {
		fmt.Println(" ", err)
		return
	}
	o, err := k.Object(cap.ID())
	if err != nil {
		fmt.Println(" ", err)
		return
	}
	fn(o)
}
