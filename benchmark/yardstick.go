package main

// The yardstick is a FROZEN CONTRACT: every timing the benchmark reports is
// divided by the duration of this kernel measured in the same process in
// the same block of work. Editing the kernel, its sizes or yardstickRefMS
// re-bases every metric ever recorded — never change them after the PR
// that introduced them. It imports nothing from the product on purpose.
//
// The mix (binary search over 16 MB, a string-keyed map probe, a small
// allocation every 8th step) was chosen because its slowdown under host
// memory-system contention tracks the query path's; a pure-ALU loop stays
// flat while queries slow down, so it cancels nothing.

import (
	"sort"
	"strconv"
)

const (
	yardstickRefMS   = 4.0 // one kernel call is defined to be 4 reference milliseconds
	yardstickIters   = 6000
	yardstickArray   = 4 << 20 // sorted []int32, 16 MB
	yardstickMapKeys = 50000
)

type yardstick struct {
	sorted []int32
	keys   []string
	table  map[string]int
	state  uint64
	sink   []int32
}

func newYardstick() *yardstick {
	y := &yardstick{
		sorted: make([]int32, yardstickArray),
		keys:   make([]string, yardstickMapKeys),
		table:  make(map[string]int, yardstickMapKeys),
		state:  0x9E3779B97F4A7C15,
	}
	// Sorted by construction: cumulative sum of pseudo-random gaps in 1..256,
	// which tops out near 2^29 and so stays inside int32.
	x, v := uint64(88172645463325252), int32(0)
	for i := range y.sorted {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v += int32(x&255) + 1
		y.sorted[i] = v
	}
	for i := range y.keys {
		y.keys[i] = "k" + strconv.Itoa(i*7919)
		y.table[y.keys[i]] = i
	}
	return y
}

// run executes the kernel once and returns a checksum of what it touched,
// which depends only on how many times run was called before.
func (y *yardstick) run() uint64 {
	x := y.state
	top := uint64(y.sorted[len(y.sorted)-1])
	var sum uint64
	for i := 0; i < yardstickIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		target := int32(x % top)
		sum += uint64(sort.Search(len(y.sorted), func(j int) bool { return y.sorted[j] >= target }))
		sum += uint64(y.table[y.keys[(x>>32)%yardstickMapKeys]])
		if i&7 == 0 {
			y.sink = make([]int32, 64+int(x>>58))
			y.sink[0] = target
			sum += uint64(len(y.sink))
		}
	}
	y.state = x
	return sum
}
