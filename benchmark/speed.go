package main

import (
	"hash/crc32"
	"math"
	"sync"
	"time"
)

// The builder is a shared 2-core virtual machine whose speed moves by a
// third within minutes: the median set-up of ten consecutive runs of one
// commit was 1.18 to 1.44 times that of the ten before (README, "What the
// builder can repeat"), and setup_s has to repeat within 0.25. So a run
// takes the machine's speed next to its set-ups and reports the set-up
// time the builder would have shown at its nominal speed.
//
// The speed is taken with three fixed pieces of work that use nothing of
// this repository, so no change to the program can move them: arithmetic
// on cached memory, hand-overs between two goroutines, and starting
// goroutines that allocate — what a set-up is made of. Dividing by their
// geometric mean brought the step between consecutive tens down to 1.03
// to 1.17 on every workload.

// The nominal times are the builder's medians over 200 runs in 25 minutes.
const (
	nominalSum   = 177e-6 // s, CRC32 of 4 MiB
	nominalPass  = 393e-6 // s, 1000 round trips between two goroutines
	nominalSpawn = 622e-6 // s, 256 goroutines that each allocate 4 KiB and a small map
)

// speed collects the times of the three pieces of work.
type speed struct{ sum, pass, spawn []float64 }

// block is what timeSum sums: a variable of the package, not of the heap,
// so that live_heap_mb does not count it.
var block [1 << 20]byte

// sample takes the three times in turn, at least once, until budget is
// spent.
func (s *speed) sample(budget time.Duration) {
	for start := time.Now(); ; {
		s.sum = append(s.sum, seconds(timeSum))
		s.pass = append(s.pass, seconds(timePass))
		s.spawn = append(s.spawn, seconds(timeSpawn))
		if time.Since(start) >= budget {
			return
		}
	}
}

// index is how slow the machine was against its nominal speed: above 1,
// slower.
func (s *speed) index() float64 {
	return math.Cbrt(median(s.sum) / nominalSum * median(s.pass) / nominalPass * median(s.spawn) / nominalSpawn)
}

func seconds(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

func timeSum() {
	for i := 0; i < 4; i++ {
		sink.Add(int64(crc32.ChecksumIEEE(block[:])))
	}
}

func timePass() {
	there, back := make(chan int), make(chan int)
	go func() {
		for v := range there {
			back <- v
		}
	}()
	for i := 0; i < 1000; i++ {
		there <- i
		<-back
	}
	close(there)
}

func timeSpawn() {
	var wg sync.WaitGroup
	var mu sync.Mutex
	kept := make([][]byte, 0, 256)
	for i := 0; i < 256; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, m := make([]byte, 4096), make(map[int]int)
			for k := 0; k < 8; k++ {
				m[k] = k
			}
			mu.Lock()
			kept = append(kept, b)
			mu.Unlock()
		}()
	}
	wg.Wait()
}
