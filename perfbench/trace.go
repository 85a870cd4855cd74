package main

import (
	"runtime/metrics"
	"time"
)

// tracer aggregates the spans a traced pass takes around calls into the
// layers: per span name, the summed duration, the call count and the
// heap objects allocated process-wide while the span was open. Spans
// nest only as parent and child of one layer boundary (des around
// node, a warm figure around the cache layers), so aggregates suffice
// to derive self time; no span is stored.
type tracer struct {
	spans  map[string]*spanAgg
	sample []metrics.Sample
}

type spanAgg struct {
	nanos  int64
	calls  int64
	allocs uint64
}

// mark is an open span.
type mark struct {
	at     time.Time
	allocs uint64
}

func newTracer() *tracer {
	return &tracer{
		spans:  map[string]*spanAgg{},
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

// begin opens a span. It is a no-op on a nil tracer, so untraced passes
// run the same code.
func (tr *tracer) begin() mark {
	if tr == nil {
		return mark{}
	}
	return mark{at: time.Now(), allocs: tr.allocs()}
}

// end closes a span opened by begin and files it under name.
func (tr *tracer) end(name string, m mark) {
	if tr == nil {
		return
	}
	d := time.Since(m.at)
	a := tr.allocs() - m.allocs
	s := tr.spans[name]
	if s == nil {
		s = &spanAgg{}
		tr.spans[name] = s
	}
	s.nanos += int64(d)
	s.calls++
	s.allocs += a
}

// selfMark is an open span whose self time and allocations leave out
// the named spans nested inside it.
type selfMark struct {
	mark
	inner  []string
	nanos  int64
	allocs uint64
}

// beginSelf opens a span that endSelf files net of the inner spans.
func (tr *tracer) beginSelf(inner ...string) selfMark {
	if tr == nil {
		return selfMark{}
	}
	n, a := tr.sum(inner)
	return selfMark{mark: tr.begin(), inner: inner, nanos: n, allocs: a}
}

// endSelf closes a span opened by beginSelf and files its self time and
// allocations under name.
func (tr *tracer) endSelf(name string, m selfMark) {
	if tr == nil {
		return
	}
	n, a := tr.sum(m.inner)
	tr.end(name, m.mark)
	s := tr.spans[name]
	s.nanos -= n - m.nanos
	s.allocs -= a - m.allocs
}

// sum totals the duration and allocations of the named spans.
func (tr *tracer) sum(names []string) (nanos int64, allocs uint64) {
	for _, name := range names {
		if s := tr.spans[name]; s != nil {
			nanos += s.nanos
			allocs += s.allocs
		}
	}
	return nanos, allocs
}

// allocs reads the cumulative heap allocation count. The runtime counts
// small objects when a span of them is handed to an allocator cache, so
// one reading can run ahead by up to a span per size class; summed over
// many calls the error averages out.
func (tr *tracer) allocs() uint64 {
	metrics.Read(tr.sample)
	return tr.sample[0].Value.Uint64()
}

// seconds is the summed duration of the named spans.
func (tr *tracer) seconds(name string) float64 {
	if s := tr.spans[name]; s != nil {
		return float64(s.nanos) / 1e9
	}
	return 0
}

func (tr *tracer) calls(name string) int64 {
	if s := tr.spans[name]; s != nil {
		return s.calls
	}
	return 0
}

func (tr *tracer) allocCount(name string) uint64 {
	if s := tr.spans[name]; s != nil {
		return s.allocs
	}
	return 0
}

// timedWindow is a pass's timed work. It stops at fixed points of the
// work to run the host probe (see probe.go), whose time it leaves out.
type timedWindow struct {
	p      *passResult
	at     time.Time
	bytes  uint64
	probes int
	// probeBytes is the heap the probes allocated, left out of the
	// pass's allocation.
	probeBytes uint64
}

// allocBytes reads the cumulative bytes of heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func openWindow(p *passResult) *timedWindow {
	return &timedWindow{p: p, at: time.Now(), bytes: allocBytes()}
}

// checkpoint runs the host probe.
func (w *timedWindow) checkpoint() {
	b := allocBytes()
	w.p.probeS += probe()
	w.probeBytes += allocBytes() - b
	w.probes++
}

// probesPerPass is how many times the runtime workloads probe the host
// in a pass, at equal steps of simulated time.
const probesPerPass = 32

// checkpointUntil probes the host once for every multiple of step at
// or before t; next holds the first multiple not yet reached.
func (w *timedWindow) checkpointUntil(t float64, next *float64, step float64) {
	for t >= *next {
		w.checkpoint()
		*next += step
	}
}

// close probes the host a last time and records into its pass the
// window's host time net of probing, the probe's slowdown against a
// quiet host, and the heap bytes allocated.
func (w *timedWindow) close() {
	w.checkpoint()
	w.p.wall = time.Since(w.at).Seconds() - w.p.probeS
	w.p.slowdown = w.p.probeS / float64(w.probes) / probeRefSeconds
	w.p.allocMB = float64(allocBytes()-w.bytes-w.probeBytes) / (1 << 20)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
