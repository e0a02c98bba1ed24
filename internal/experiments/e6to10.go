package experiments

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eden"
	"eden/internal/efs"
	"eden/internal/ether"
)

// RunE6 sweeps offered load on the CSMA/CD simulator — the shape of
// the Ethernet measurement study (Almes & Lazowska 1979) the paper's
// network choice rests on.
func RunE6() (*Table, error) {
	cfg := ether.DefaultConfig()
	const stations, frameBits = 16, 8000
	loads := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.5, 2.0}
	pts, err := ether.SweepLoad(cfg, stations, frameBits, loads, 2*time.Second, 1981)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:         "E6",
		Title:      fmt.Sprintf("Ethernet (10 Mb/s CSMA/CD): %d stations, %d-bit frames, 2 s virtual time per point", stations, frameBits),
		Prediction: "utilization tracks offered load until ~0.9, then saturates high (long frames); delay and collisions blow up past saturation",
		Columns:    []string{"offered load", "utilization", "mean delay ms", "collisions/frame", "drop rate"},
		Notes:      fmt.Sprintf("theoretical efficiency bound 1/(1+e·a) = %.2f for these frames", ether.Efficiency(cfg, frameBits)),
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", p.Offered),
			fmt.Sprintf("%.3f", p.Utilization),
			ms(p.MeanDelay),
			fmt.Sprintf("%.2f", p.Collisions),
			fmt.Sprintf("%.3f", p.DropRate),
		})
	}
	return t, nil
}

// RunE6Stations sweeps station count at fixed high load — the second
// axis of the Ethernet study.
func RunE6Stations() (*Table, error) {
	cfg := ether.DefaultConfig()
	const frameBits = 8000
	t := &Table{
		ID:         "E6b",
		Title:      "Ethernet: station count at offered load 0.9",
		Prediction: "more stations contending raises the collision rate; delivered utilization degrades only modestly",
		Columns:    []string{"stations", "utilization", "mean delay ms", "collisions/frame"},
	}
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		pts, err := ether.SweepLoad(cfg, n, frameBits, []float64{0.9}, 2*time.Second, 7)
		if err != nil {
			return nil, err
		}
		p := pts[0]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprintf("%.3f", p.Utilization), ms(p.MeanDelay), fmt.Sprintf("%.2f", p.Collisions),
		})
	}
	return t, nil
}

// RunE6Sizes sweeps frame size at fixed overload — the third axis of
// the Ethernet study: short frames waste the channel on contention,
// long frames approach capacity. A fairness column confirms CSMA/CD
// shares the channel evenly among symmetric stations.
func RunE6Sizes() (*Table, error) {
	cfg := ether.DefaultConfig()
	const stations, load = 16, 1.5
	t := &Table{
		ID:         "E6c",
		Title:      "Ethernet: frame-size sweep at offered load 1.5 (saturated)",
		Prediction: "utilization approaches the 1/(1+e·a) bound: poor for short frames, excellent for long ones; sharing stays fair",
		Columns:    []string{"frame bits", "utilization", "bound", "mean delay ms", "fairness"},
	}
	for _, bits := range []int{512, 1024, 2048, 4096, 8000, 12000} {
		perStation := load * cfg.BitRate / float64(bits) / float64(stations)
		sim, err := ether.New(cfg, stations, perStation, bits, 29)
		if err != nil {
			return nil, err
		}
		st := sim.Run(2 * time.Second)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(bits),
			fmt.Sprintf("%.3f", st.Utilization()),
			fmt.Sprintf("%.3f", ether.Efficiency(cfg, bits)),
			ms(st.MeanDelay()),
			fmt.Sprintf("%.3f", ether.Fairness(sim.DeliveredByStation())),
		})
	}
	return t, nil
}

// RunE7 measures the location machinery: first touches of objects at
// their creator (the name's guess) and of objects that moved away (a
// chase through the creator's forwarding pointer), hint-cache hits, and
// cache behavior under object churn.
func RunE7() (*Table, error) {
	sys, nodes, err := newSystem(4)
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	t := &Table{
		ID:         "E7",
		Title:      "location lookup: creator guess, forwarding chase and hint cache; churn repair",
		Prediction: "a first touch of an object at its creator costs what a warm one does, with no broadcast; one of an object that moved away pays one chase through the creator's forwarding pointer; warm lookups are free; each move costs one chase then re-caches",
		Columns:    []string{"case", "median invoke µs", "broadcasts", "how found"},
	}
	client := nodes[3]
	loc := client.Kernel().Locator()

	// Objects that never left their creator, and objects that moved away
	// while the client could not hear of it (so it knows only the names).
	const firstN = 50
	fresh := make([]eden.Capability, firstN)
	moved := make([]eden.Capability, firstN)
	for i := range fresh {
		if fresh[i], err = nodes[0].CreateObject("bench.echo"); err != nil {
			return nil, err
		}
	}
	sys.Partition(nodes[0], client)
	for i := range moved {
		if moved[i], err = nodes[0].CreateObject("bench.echo"); err != nil {
			return nil, err
		}
		obj, err := nodes[0].Object(moved[i])
		if err != nil {
			return nil, err
		}
		if err := <-obj.Move(nodes[1].Num()); err != nil {
			return nil, err
		}
	}
	sys.Heal(nodes[0], client)
	// firstTouches invokes each object once from the client, and returns
	// the mean latency and the client's location counts over the calls.
	firstTouches := func(caps []eden.Capability) (lat time.Duration, broadcasts, guesses, chases int64, err error) {
		l0, c0 := loc.Stats(), client.Kernel().Stats().MovedChases
		for _, cap := range caps {
			start := time.Now()
			if _, err := client.Invoke(cap, "echo", nil, nil, expOpts()); err != nil {
				return 0, 0, 0, 0, err
			}
			lat += time.Since(start)
		}
		l1 := loc.Stats()
		return lat / time.Duration(len(caps)), l1.Broadcasts - l0.Broadcasts, l1.Guesses - l0.Guesses,
			client.Kernel().Stats().MovedChases - c0, nil
	}

	lat, broadcasts, _, chases, err := firstTouches(moved)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"cold, moved from its creator", us(lat),
		fmt.Sprint(broadcasts), fmt.Sprintf("%d chases from the creator", chases),
	})

	// Warm lookups: one of the moved objects, its home now cached.
	b0 := loc.Stats()
	warm, _, _, err := measure(300, func() error {
		_, err := client.Invoke(moved[0], "echo", nil, nil, expOpts())
		return err
	})
	if err != nil {
		return nil, err
	}
	b1 := loc.Stats()
	t.Rows = append(t.Rows, []string{
		"warm (hint cached)", us(warm),
		fmt.Sprint(b1.Broadcasts - b0.Broadcasts),
		fmt.Sprintf("%.0f%% hit rate", 100*float64(b1.Hits-b0.Hits)/300),
	})

	lat, broadcasts, guesses, _, err := firstTouches(fresh)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"cold, never moved", us(lat),
		fmt.Sprint(broadcasts), fmt.Sprintf("%.0f%% creator guessed", 100*float64(guesses)/firstN),
	})

	// Churn: the object moves between invocations; every move
	// invalidates the client's hint once.
	cap := fresh[0]
	var churnTotal time.Duration
	const churnN = 30
	homes := []*eden.Node{nodes[0], nodes[1], nodes[2]}
	c0 := nodes[3].Kernel().Locator().Stats()
	for i := 0; i < churnN; i++ {
		obj, err := homes[i%3].Object(cap)
		if err != nil {
			// The object moved; find it at its current home.
			for _, h := range homes {
				if o, e := h.Kernel().Object(cap.ID()); e == nil {
					obj = o
					err = nil
					break
				}
			}
			if err != nil {
				return nil, err
			}
		}
		if err := <-obj.Move(homes[(i+1)%3].Num()); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := nodes[3].Invoke(cap, "echo", nil, nil, expOpts()); err != nil {
			return nil, err
		}
		churnTotal += time.Since(start)
	}
	c1 := nodes[3].Kernel().Locator().Stats()
	t.Rows = append(t.Rows, []string{
		"churn (move before each invoke)", us(churnTotal / churnN),
		fmt.Sprint(c1.Broadcasts - c0.Broadcasts),
		fmt.Sprintf("%d invalidations", c1.Invalidations-c0.Invalidations),
	})
	return t, nil
}

// RunE8 measures availability and recovery latency after the home
// node's failure, across checksite policies.
func RunE8() (*Table, error) {
	t := &Table{
		ID:         "E8",
		Title:      "failure recovery: invoke after home-node crash, by checkpoint policy",
		Prediction: "no checkpoint → object lost; local-only → unavailable until the node returns; remote/replicated checksite → recovered at the backup site",
		Columns:    []string{"policy", "survives home crash", "recovery latency ms", "recovered state intact"},
	}
	type policyCase struct {
		name  string
		setup func(obj *eden.Object, backup *eden.Node) error
	}
	cases := []policyCase{
		{"no checkpoint", func(obj *eden.Object, backup *eden.Node) error { return nil }},
		{"local checkpoint", func(obj *eden.Object, backup *eden.Node) error {
			return obj.Checkpoint()
		}},
		{"remote checksite", func(obj *eden.Object, backup *eden.Node) error {
			if err := obj.SetChecksite(eden.RelRemote, backup.Num()); err != nil {
				return err
			}
			return obj.Checkpoint()
		}},
		{"replicated checksite", func(obj *eden.Object, backup *eden.Node) error {
			if err := obj.SetChecksite(eden.RelReplicated, backup.Num()); err != nil {
				return err
			}
			return obj.Checkpoint()
		}},
	}
	for _, pc := range cases {
		sys, nodes, err := newSystem(3)
		if err != nil {
			return nil, err
		}
		home, backup, client := nodes[0], nodes[1], nodes[2]
		cap, err := home.CreateObject("bench.echo")
		if err != nil {
			sys.Close()
			return nil, err
		}
		if _, err := home.Invoke(cap, "store", []byte("precious state"), nil, expOpts()); err != nil {
			sys.Close()
			return nil, err
		}
		obj, err := home.Object(cap)
		if err != nil {
			sys.Close()
			return nil, err
		}
		if err := pc.setup(obj, backup); err != nil {
			sys.Close()
			return nil, err
		}
		home.Crash()

		start := time.Now()
		_, ierr := client.Invoke(cap, "echo", []byte("x"), nil, &eden.InvokeOptions{Timeout: 3 * time.Second})
		lat := time.Since(start)
		survived := ierr == nil
		intact := "-"
		if survived {
			// Verify the recovered representation.
			o, err := backup.Object(cap)
			if err == nil {
				a := o.Describe()
				intact = "yes"
				_ = a
			} else {
				intact = "unknown"
			}
		}
		latStr := ms(lat)
		if !survived {
			latStr = "-"
			if !errors.Is(ierr, eden.ErrNoSuchObject) && !errors.Is(ierr, eden.ErrTimeout) {
				sys.Close()
				return nil, fmt.Errorf("E8 %s: unexpected error %v", pc.name, ierr)
			}
		}
		sys.Close()
		t.Rows = append(t.Rows, []string{
			pc.name, fmt.Sprint(survived), latStr, intact,
		})
	}
	return t, nil
}

// RunE9 compares EFS concurrency-control disciplines under contention
// and measures replica read placement.
func RunE9() (*Table, error) {
	t := &Table{
		ID:         "E9",
		Title:      "EFS: transaction throughput under contention (8 writers, 10 commits each)",
		Prediction: "on one hot file both disciplines serialize (optimistic pays retries); on distinct files both scale; local mirror reads beat remote primary reads",
		Columns:    []string{"case", "committed tx/s", "conflict retries"},
	}
	for _, mode := range []efs.CCMode{efs.Locking, efs.Optimistic} {
		for _, hot := range []bool{true, false} {
			sys, nodes, err := newSystem(1)
			if err != nil {
				return nil, err
			}
			client := nodes[0].EFS(mode)
			const writers, commitsEach = 8, 10
			files := make([]eden.Capability, writers)
			shared, err := client.CreateFile()
			if err != nil {
				sys.Close()
				return nil, err
			}
			for i := range files {
				if hot {
					files[i] = shared
				} else {
					files[i], err = client.CreateFile()
					if err != nil {
						sys.Close()
						return nil, err
					}
				}
			}

			// Think time between read and write widens the window in
			// which concurrent read-modify-write transactions overlap,
			// so the disciplines' conflict behavior becomes visible.
			const thinkTime = 500 * time.Microsecond
			var retries atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < commitsEach; i++ {
						for {
							tx := client.Begin()
							_, ver, err := tx.Read(files[w])
							if err != nil {
								return
							}
							time.Sleep(thinkTime)
							if err := tx.Write(files[w], ver, u64(uint64(i))); err != nil {
								tx.Abort()
								retries.Add(1)
								continue
							}
							if err := tx.Commit(); err != nil {
								retries.Add(1)
								continue
							}
							break
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			sys.Close()
			workload := "hot file"
			if !hot {
				workload = "distinct files"
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%s, %s", mode, workload),
				fmt.Sprintf("%.0f", float64(writers*commitsEach)/elapsed.Seconds()),
				fmt.Sprint(retries.Load()),
			})
		}
	}

	// Replica read placement.
	sys, nodes, err := newSystem(3)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	primaryClient := nodes[0].EFS(efs.Optimistic)
	primary, mirrors, err := primaryClient.CreateReplicated(nodes[2].Num())
	if err != nil {
		return nil, err
	}
	tx := primaryClient.Begin()
	if err := tx.Write(primary, 0, make([]byte, 4096)); err != nil {
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	reader := nodes[2].EFS(efs.Optimistic)
	if _, _, err := reader.Read(primary); err != nil { // warm hints
		return nil, err
	}
	if _, _, err := reader.Read(mirrors[0]); err != nil {
		return nil, err
	}
	remote, _, _, err := measure(200, func() error {
		_, _, err := reader.Read(primary)
		return err
	})
	if err != nil {
		return nil, err
	}
	local, _, _, err := measure(200, func() error {
		_, _, err := reader.Read(mirrors[0])
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"read remote primary (µs)", us(remote), "-"})
	t.Rows = append(t.Rows, []string{"read local mirror (µs)", us(local), "-"})
	return t, nil
}

// RunE10 measures dispatch cost versus type-hierarchy depth — the
// ablation of the §5 subtype mechanism.
func RunE10() (*Table, error) {
	sys, nodes, err := newSystem(1)
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	t := &Table{
		ID:         "E10",
		Title:      "invocation latency vs inheritance depth (operation defined on the root supertype)",
		Prediction: "the hierarchy is flattened once per type, so dispatch cost is flat in depth",
		Columns:    []string{"depth", "median invoke µs"},
	}
	// Build a chain: depth0 <- depth1 <- ... <- depthN, with the
	// operation only on depth0.
	root := eden.NewType("bench.depth0")
	root.Op(eden.Operation{Name: "op", ReadOnly: true, Handler: func(c *eden.Call) { c.Return(nil) }})
	if err := sys.RegisterType(root); err != nil {
		return nil, err
	}
	for d := 1; d <= 8; d++ {
		sub := eden.NewType(fmt.Sprintf("bench.depth%d", d))
		sub.Extends = fmt.Sprintf("bench.depth%d", d-1)
		if err := sys.RegisterType(sub); err != nil {
			return nil, err
		}
	}
	for _, d := range []int{0, 1, 2, 4, 8} {
		cap, err := nodes[0].CreateObject(fmt.Sprintf("bench.depth%d", d))
		if err != nil {
			return nil, err
		}
		med, _, _, err := measure(2000, func() error {
			_, err := nodes[0].Invoke(cap, "op", nil, nil, expOpts())
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(d), us(med)})
	}
	return t, nil
}

// RunE11 characterizes the single-level memory: invocation latency and
// eviction traffic as the node's virtual-memory budget shrinks below
// the working set — the classic paging curve, produced by the
// checkpoint/passivate/reincarnate machinery instead of page tables.
func RunE11() (*Table, error) {
	const objects = 16
	const objectSize = 8 << 10
	const rounds = 6

	t := &Table{
		ID:         "E11",
		Title:      fmt.Sprintf("single-level memory: %d objects x %d KB, round-robin access, by memory budget", objects, objectSize/1024),
		Prediction: "with the working set resident, no evictions and µs invokes; as the budget shrinks, every access pays passivate+reincarnate",
		Columns:    []string{"budget / working set", "median invoke µs", "evictions", "reincarnations"},
	}
	for _, frac := range []float64{2.0, 1.0, 0.5, 0.25} {
		sys, err := eden.NewSystem(eden.SystemConfig{
			DefaultTimeout: expTimeout,
			LocateTimeout:  2 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		budget := int64(frac * objects * objectSize)
		node, err := sys.AddNodeWithConfig("paging", eden.NodeConfig{
			MemoryBytes:     budget,
			EvictOnPressure: true,
		})
		if err != nil {
			sys.Close()
			return nil, err
		}
		if err := sys.RegisterType(echoType()); err != nil {
			sys.Close()
			return nil, err
		}
		caps := make([]eden.Capability, objects)
		for i := range caps {
			caps[i], err = node.CreateObject("bench.echo")
			if err != nil {
				sys.Close()
				return nil, err
			}
			if _, err := node.Invoke(caps[i], "store", make([]byte, objectSize), nil, expOpts()); err != nil {
				sys.Close()
				return nil, err
			}
		}
		st0 := node.Kernel().Stats()
		var samples []time.Duration
		for r := 0; r < rounds; r++ {
			for _, cap := range caps {
				start := time.Now()
				if _, err := node.Invoke(cap, "echo", nil, nil, expOpts()); err != nil {
					sys.Close()
					return nil, err
				}
				samples = append(samples, time.Since(start))
			}
		}
		st1 := node.Kernel().Stats()
		sys.Close()

		sortDurations(samples)
		med := samples[len(samples)/2]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2fx", frac),
			us(med),
			fmt.Sprint(st1.Evictions - st0.Evictions),
			fmt.Sprint(st1.Reincarnations - st0.Reincarnations),
		})
	}
	return t, nil
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
