package main

import (
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The benchmark's host is shared: over minutes its speed drifts by 10 to
// 35%, and every time a campaign takes drifts with it, CPU time included.
// So the parent runs a fixed calibration loop right before and right
// after each child, and the end-to-end times are scaled by how much
// slower or faster than the loop's reference time the host ran it around
// that child. The loops run no repository code, so no change to Mumak can
// move them; what they measure is the host alone.
//
// Contention on a shared host does not slow all code alike, so there are
// two loops, one per shape of campaign:
//
//   - parallelLoop is two goroutines, as many as a campaign child's
//     GOMAXPROCS, each walking a table larger than the private caches
//     with dependent loads and then hashing a buffer. It follows the drift
//     of campaigns that replay failure points on both workers, which are
//     dominated by crash-image copies and replays.
//   - serialLoop is one goroutine churning a small map, round-tripping
//     small records through encoding/json and building and dropping
//     binary trees. It follows the drift of campaigns that run on one
//     thread over a heap that stays in the private caches: a warm re-run
//     is phase 1 and phase 3 only, and slows under contention two to
//     three times as much as parallelLoop does.
//
// On the reference host each loop takes about refCalibrationS when the
// host is quiet; scaled times are seconds on a host of that speed.
//
// Set-up is scaled differently. It takes milliseconds, and the speed of
// such short single-threaded work swings by a third from one millisecond
// to the next, faster than loops around the child can follow. So the
// child runs setupLoop, a loop of the same shape as workload generation,
// right after each set-up and scales that set-up by refSetupLoopS over
// the loop's time.
const refCalibrationS = 0.2

const (
	chaseEntries = 1 << 23 // 32 MiB of uint32, well beyond the private caches
	chaseSteps   = 1 << 20
	hashBlock    = 1 << 20
	hashRounds   = 60

	mapKeys     = 1 << 16
	mapOps      = 1600000
	jsonRecords = 300
	jsonRounds  = 50
	treeDepth   = 16
	treeRounds  = 20

	setupLoopOps  = 1 << 14
	refSetupLoopS = 0.002
)

var (
	chaseOnce  sync.Once
	chaseTable []uint32
)

// calibrate times the loop for the given campaign shape.
func calibrate(serial bool) time.Duration {
	t0 := time.Now()
	if serial {
		serialLoop()
	} else {
		parallelLoop()
	}
	return time.Since(t0)
}

func parallelLoop() {
	chaseOnce.Do(func() {
		// One full-period linear congruential cycle (a ≡ 1 mod 4, c odd):
		// every step lands on an unpredictable cache line.
		chaseTable = make([]uint32, chaseEntries)
		for i := range chaseTable {
			chaseTable[i] = uint32((uint64(i)*1664525 + 1013904223) % chaseEntries)
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < cliWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := uint32(g * chaseEntries / cliWorkers)
			for i := 0; i < chaseSteps; i++ {
				x = chaseTable[x]
			}
			buf := make([]byte, hashBlock)
			buf[0] = byte(x)
			for i := 0; i < hashRounds; i++ {
				sum := sha256.Sum256(buf)
				buf[i] = sum[0]
			}
		}(g)
	}
	wg.Wait()
}

type calRecord struct {
	ID    int
	Name  string
	Vals  []int
	Inner map[string]int
}

type calNode struct {
	l, r *calNode
	v    int
}

func calTree(depth int) *calNode {
	if depth == 0 {
		return &calNode{v: 1}
	}
	return &calNode{l: calTree(depth - 1), r: calTree(depth - 1), v: depth}
}

func serialLoop() {
	// Map churn over xorshift keys, keeping some keys to sort.
	m := make(map[uint64]uint64, mapKeys)
	var kept []uint64
	x := uint64(88172645463325252)
	for i := 0; i < mapOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % mapKeys
		m[k] += x
		if m[k]&1 == 0 && len(kept) < mapKeys {
			kept = append(kept, k)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })

	recs := make([]calRecord, jsonRecords)
	for i := range recs {
		recs[i] = calRecord{ID: i, Name: "record", Vals: []int{i, 2 * i, 3 * i}, Inner: map[string]int{"k": i}}
	}
	for i := 0; i < jsonRounds; i++ {
		data, err := json.Marshal(recs)
		if err != nil {
			panic(err) // the records are plain data; Marshal cannot fail
		}
		if err := json.Unmarshal(data, &recs); err != nil {
			panic(err)
		}
	}

	for i := 0; i < treeRounds; i++ {
		calTree(treeDepth)
	}
	runtime.GC()
}

// setupLoop times what inputs does, without repository code: draw
// operations, collect and sort their distinct keys, and map every key to
// its rank.
func setupLoop() time.Duration {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(1))
	type op struct{ key, val uint64 }
	ops := make([]op, setupLoopOps)
	rank := make(map[uint64]uint64, setupLoopOps/2)
	var keys []uint64
	for i := range ops {
		ops[i] = op{rng.Uint64() % (setupLoopOps / 2), rng.Uint64()}
		if _, ok := rank[ops[i].key]; !ok {
			rank[ops[i].key] = 0
			keys = append(keys, ops[i].key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, k := range keys {
		rank[k] = uint64(i)
	}
	for i := range ops {
		ops[i].key = rank[ops[i].key]
	}
	return time.Since(t0)
}
