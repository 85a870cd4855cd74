package main

import "time"

// The host probe. This benchmark runs on a few cores of a shared host,
// and the same fixed work takes up to twice as long while other tenants
// contend for the shared cache and memory, in stretches of seconds to
// minutes. Each pass therefore stops at fixed points of its work to
// time the probe, a fixed job of map inserts and small allocations, and
// its times are reported scaled by how much slower than probeRefSeconds
// the probe ran during that pass. On one busy host, runs at five seeds
// spread a quarter as much scaled as unscaled (perfbench/NOTES.md). The
// probe's code is the benchmark's own, so no change to the program
// moves it.

// probeRefSeconds is the probe's reference time, about its time inside
// a paper-figures pass on a quiet 2-core Intel Xeon VM (go1.24.0), so
// that scaled times read close to host seconds there. Changing it
// rescales every reported time.
const probeRefSeconds = 0.0014

// probeOps is the number of map inserts in one probe.
const probeOps = 1 << 14

// probeSink keeps the probe's work from being optimised away.
var probeSink int

// probe runs the probe once and returns its host seconds. It grows a
// fresh map by probeOps random inserts and makes probeOps/8 small
// allocations, the operations the workloads spend most of their time
// in; its garbage is left out of their allocation counts.
func probe() float64 {
	t0 := time.Now()
	m := make(map[uint64]uint64)
	x := uint64(88172645463325252)
	var bufs [][]byte
	for i := 0; i < probeOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x&(1<<20-1)] += uint64(i)
		if i%8 == 0 {
			b := make([]byte, 64+int(x>>60))
			b[0] = byte(x)
			bufs = append(bufs, b)
		}
	}
	probeSink = len(m) + len(bufs)
	return time.Since(t0).Seconds()
}
