// Command perfbench is the repository's layered benchmark. It runs one
// named workload through the public entry points of the layers, checks
// the workload's outputs, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with no
// spans; with -trace 1 they are the per-layer set, measured by spans the
// benchmark takes around each call into a layer, the program's obs
// counters, and allocation deltas from the Go runtime. A traced run
// alternates untraced and traced passes, so it also reports the
// tracing overhead.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload runtime-antipackets --seed 1 --seconds 30 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is the metric set of an untraced run, which every workload
// reports, each a median over passes: the set-up time and the host
// seconds of the fixed work, both scaled to a quiet host (see probe.go),
// and the heap bytes the fixed work allocated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
}

// perLayer is the metric set of a traced run. Every workload reports
// every one; a layer the workload does not reach reads 0, which is the
// control for changes to that layer.
var perLayer = []metricDef{
	{"experiment.security_s", "s"},
	{"experiment.delivery_s", "s"},
	{"experiment.allocs_per_trial", "count"},
	{"experiment.trials", "count"},
	{"runner.utilization", "ratio"},
	{"des.self_s", "s"},
	{"des.events", "count"},
	{"node.meet_s", "s"},
	{"node.meet_calls", "count"},
	{"node.allocs_per_contact", "count"},
	{"node.send_s", "s"},
	{"node.handoffs", "count"},
	{"node.refusals", "count"},
	{"node.purged", "count"},
	{"node.custody_high_water", "count"},
	{"cluster.contact_s", "s"},
	{"cluster.send_s", "s"},
	{"cluster.dials_per_contact", "ratio"},
	{"cluster.bytes_out", "B"},
	{"cluster.frames_out", "count"},
	{"cluster.useful_offer_ratio", "ratio"},
	{"cluster.allocs_per_contact", "count"},
	{"cluster.launch_s", "s"},
	{"cluster.bytes_per_delivered", "B"},
	{"cluster.frames_per_contact", "ratio"},
	{"retry.attempts", "count"},
	{"breaker.opens", "count"},
	{"resultcache.open_s", "s"},
	{"resultcache.records_loaded", "count"},
	{"resultcache.allocs_per_record", "count"},
	{"dispatch.run_s", "s"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"runtime.delivered_per_s", "1/s"},
	{"runtime.contact_p50_us", "us"},
	{"runtime.contact_p99_us", "us"},
	{"runtime.delivery_ratio", "ratio"},
	{"runtime.latency_p50_min", "min"},
	{"runtime.latency_p99_min", "min"},
	{"bench.harness_s", "s"},
	{"bench.trace_overhead", "ratio"},
	{"bench.max_rss_mb", "MB"},
	{"bench.raw_wall_s", "s"},
	{"bench.host_slowdown", "ratio"},
}

// config is one invocation.
type config struct {
	workload string
	// seed is the input seed every generator draws from: the -seed
	// argument folded by inputSeed onto the seeds digests.json pins.
	seed uint64
	// seedArg is the -seed argument as given, printed on the env line.
	seedArg uint64
	seconds float64
	trace   bool
	// workDir holds the benchmark's scratch files (the result cache of
	// figures-warm); it is created if missing.
	workDir string
	// wantDigest fails the run unless the output digest of every pass
	// equals it. run sets it from the committed digests.json; the
	// self-tests, whose tiny sizes have no committed digest, set it
	// directly or leave it empty to skip the pin.
	wantDigest string
	// tiny shrinks every workload to a size the self-tests can afford.
	tiny bool
	// corrupt makes each workload's output check expect something
	// deliberately wrong, so the self-tests can prove the check bites.
	corrupt bool
}

// passResult is one repetition of a workload's fixed work.
type passResult struct {
	setup     []float64 // seconds of each set-up this pass made
	wall      float64   // host seconds of the timed work
	probeS    float64   // host seconds spent in the host probe, not in wall
	slowdown  float64   // the probe's mean time over probeRefSeconds
	allocMB   float64   // heap MiB allocated during the timed work
	ops       []float64 // microseconds per contact (runtime workloads)
	digest    string    // deterministic output digest, equal on every pass
	attempted int64
	failed    int64
	// layers holds per-layer values (filled on traced passes) and the
	// simulated statistics and contact percentiles, "runtime.*", that
	// every runtime pass computes.
	layers map[string]float64
	// summary is human-readable output facts, printed once.
	summary []string
	traced  bool
}

// workload runs passes of one fixed-size job. prepare runs once per
// invocation (input generation, one-off set-up) and returns the time of
// each set-up it made; pass runs the timed job, with tr nil on untraced
// passes.
type workload interface {
	prepare(cfg config) ([]float64, error)
	pass(cfg config, tr *tracer) (*passResult, error)
	close() error
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errCheck marks an output check that did not hold: the run prints its
// result with correct=false and exits nonzero.
var errCheck = errors.New("output check failed")

// benchProcs is the number of threads the benchmark runs Go code on.
// It runs on a few cores of a shared host: a second thread measures the
// neighbours' load on the second core more than the program, and spread
// the figures between runs by half again.
const benchProcs = 1

func main() {
	runtime.GOMAXPROCS(benchProcs)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 30, "measurement time; passes repeat until it is used")
		trace   = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
		workDir = fs.String("workdir", ".bench_build", "directory for the benchmark's scratch files")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	in := inputSeed(*seed)
	want, err := expectedDigest(*name, in)
	if err != nil {
		return err
	}
	cfg := config{
		workload: *name, seed: in, seedArg: *seed, seconds: *seconds, trace: *trace == 1,
		workDir: *workDir, wantDigest: want,
	}
	res, err := measure(cfg, out)
	if res != nil {
		if perr := printResult(out, res); perr != nil {
			return perr
		}
	}
	return err
}

// digestsJSON pins each workload's output digest at every input seed
// 0 to pinnedSeeds-1: workload name, then the seed in decimal, then the
// SHA-256 in hex. A change that alters figure values or deliveries
// fails the run even when its output stays deterministic.
//
//go:embed digests.json
var digestsJSON []byte

// pinnedSeeds is the number of input seeds digests.json pins.
const pinnedSeeds = 200

// inputSeed folds any -seed argument onto a pinned input seed, so that
// every run, at whatever seed it is given, is checked against a known
// answer. Distinct arguments below pinnedSeeds give distinct inputs.
func inputSeed(arg uint64) uint64 { return arg % pinnedSeeds }

// expectedDigest is the committed digest of the workload's output at
// seed. A seed with no entry is an error: its output cannot be checked.
func expectedDigest(workload string, seed uint64) (string, error) {
	if _, err := newWorkload(workload); err != nil {
		return "", err
	}
	var table map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &table); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	d, ok := table[workload][fmt.Sprint(seed)]
	if !ok {
		return "", fmt.Errorf("no expected digest for %s at seed %d in digests.json; its output cannot be checked", workload, seed)
	}
	return d, nil
}

// measure runs the workload for cfg.seconds and assembles the result.
// A failed output check returns a result with Correct false plus an
// error wrapping errCheck; any other error returns no result.
func measure(cfg config, out io.Writer) (*result, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	printEnv(out, cfg)
	start := time.Now()
	setups, err := w.prepare(cfg)
	if err != nil {
		_ = w.close()
		return nil, fmt.Errorf("%s: prepare: %w", cfg.workload, err)
	}
	var untraced, traced []*passResult
	var checkErr error
	budget := time.Duration(cfg.seconds * float64(time.Second))
	measureStart := time.Now()
	for i := 0; ; i++ {
		withTrace := cfg.trace && i%2 == 1
		var tr *tracer
		if withTrace {
			tr = newTracer()
		}
		p, err := w.pass(cfg, tr)
		if p != nil {
			p.traced = withTrace
		}
		if err != nil {
			if !errors.Is(err, errCheck) {
				_ = w.close()
				return nil, fmt.Errorf("%s: pass %d: %w", cfg.workload, i, err)
			}
			checkErr = errors.Join(checkErr, fmt.Errorf("pass %d: %w", i, err))
		}
		if withTrace {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
		if cfg.wantDigest != "" && p.digest != cfg.wantDigest {
			checkErr = errors.Join(checkErr, fmt.Errorf("%w: pass %d digest %s, want %s", errCheck, i, p.digest, cfg.wantDigest))
		}
		if first := untraced[0]; p.digest != first.digest {
			checkErr = errors.Join(checkErr, fmt.Errorf("%w: pass %d digest %s differs from pass 0's %s (nondeterministic output)", errCheck, i, p.digest, first.digest))
		}
		if cfg.tiny {
			if !cfg.trace || len(traced) > 0 {
				break
			}
			continue
		}
		// Stop once another pass would overrun the budget, after at
		// least minPasses (and, traced, at least one of each kind).
		elapsed := time.Since(measureStart)
		perPass := elapsed / time.Duration(i+1)
		enough := i+1 >= warmupPasses+minPasses && (!cfg.trace || len(traced) > 0)
		if enough && elapsed+perPass > budget {
			break
		}
	}
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", cfg.workload, err)
	}
	all := append(append([]*passResult(nil), untraced...), traced...)
	res := &result{Correct: checkErr == nil, Metrics: map[string]metricValue{}}
	for _, p := range all {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	for _, line := range untraced[0].summary {
		fmt.Fprintf(out, "%s: %s\n", cfg.workload, line)
	}
	fmt.Fprintf(out, "%s: digest %s over %d untraced + %d traced passes\n", cfg.workload, untraced[0].digest, len(untraced), len(traced))
	fmt.Fprintf(out, "%s: pass host slowdown %v\n", cfg.workload, roundAll(field(all, func(p *passResult) []float64 { return []float64{p.slowdown} })))
	fmt.Fprintf(out, "%s: pass wall_s untraced %v traced %v\n", cfg.workload,
		roundAll(field(untraced, func(p *passResult) []float64 { return []float64{p.wall} })),
		roundAll(field(traced, func(p *passResult) []float64 { return []float64{p.wall} })))

	// Times are scaled to a quiet host by the probe's slowdown (see
	// probe.go): pass times by their own pass's, set-ups, which run
	// outside the timed windows, by the median over the run's passes.
	// The first pass warms the process and the host (the cluster's
	// dials fill the kernel's TIME_WAIT table, which slows later
	// dials); its outputs are checked like any other's, its times not
	// reported.
	timed := untraced[min(warmupPasses, len(untraced)-1):]
	all = append(append([]*passResult(nil), timed...), traced...)
	slowdown := median(field(all, func(p *passResult) []float64 { return []float64{p.slowdown} }))
	scaledWall := func(ps []*passResult) float64 {
		return median(field(ps, func(p *passResult) []float64 { return []float64{p.wall / p.slowdown} }))
	}
	if !cfg.trace {
		res.put("setup_s", median(append(setups, field(timed, func(p *passResult) []float64 { return p.setup })...))/slowdown)
		res.put("wall_s", scaledWall(timed))
		res.put("alloc_mb", median(field(timed, func(p *passResult) []float64 { return []float64{p.allocMB} })))
	} else {
		// Layer values come from the traced passes; the simulated
		// statistics and host-time percentiles ("runtime.*") from the
		// untraced passes of the same invocation.
		layers := map[string][]float64{}
		for _, p := range all {
			for k, v := range p.layers {
				if p.traced != strings.HasPrefix(k, "runtime.") {
					layers[k] = append(layers[k], v)
				}
			}
		}
		for _, d := range perLayer {
			res.put(d.name, median(layers[d.name]))
		}
		res.put("bench.trace_overhead", scaledWall(traced)/scaledWall(timed)-1)
		res.put("bench.raw_wall_s", median(field(timed, func(p *passResult) []float64 { return []float64{p.wall} })))
		res.put("bench.host_slowdown", slowdown)
		res.put("bench.max_rss_mb", maxRSSMB())
	}
	for _, d := range metricSet(cfg.trace) {
		v := res.Metrics[d.name]
		fmt.Fprintf(out, "%s: %-32s %14.6g %s\n", cfg.workload, d.name, v.Value, v.Unit)
	}
	fmt.Fprintf(out, "%s: %d passes in %.2fs\n", cfg.workload, len(all), time.Since(start).Seconds())
	if checkErr != nil {
		res.Correct = false
		return res, checkErr
	}
	return res, nil
}

// minPasses is the fewest repetitions a run measures after its
// warmupPasses: the reported times are medians over passes.
const (
	minPasses    = 3
	warmupPasses = 1
)

func (r *result) put(name string, v float64) {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: unknown metric " + name)
}

func metricSet(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func printResult(out io.Writer, res *result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

func field(ps []*passResult, get func(*passResult) []float64) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, get(p)...)
	}
	return out
}

func roundAll(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = math.Round(v*1e3) / 1e3
	}
	return out
}

// median returns the median of vs, or 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return stats.Quantile(vs, 0.5)
}

// maxRSSMB is the process's peak resident set in MiB. It swings by a
// third between runs with garbage-collection timing, so it is reported
// in the traced run rather than bounded.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printEnv records the machine beside the wall-clock numbers.
func printEnv(out io.Writer, cfg config) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	wd, _ := filepath.Abs(cfg.workDir)
	fmt.Fprintf(out, "env: cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s workload=%s seed=%d input-seed=%d seconds=%g trace=%v workdir=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev,
		cfg.workload, cfg.seedArg, cfg.seed, cfg.seconds, cfg.trace, wd)
}
