// Command dtnload is the sustained-load service mode: it drives an
// open-loop arrival process — plain Poisson or bursty MMPP-2 — through
// either the in-process simulator or a live loopback TCP cluster at a
// configured target rate, and judges the run against service-level
// objectives (delivery ratio, p50/p99 delivery latency). Offered load
// never adapts to how the system copes: that is the defining property
// of an open-loop test, and the reason saturation shows up here while
// a closed-loop driver would silently throttle itself past it.
//
// With -metrics the run doubles as a Prometheus scrape target: the
// fixed-enum observability counters, the delivery-latency histogram,
// and the phase timers are served live in text exposition format, and
// the run manifest written by -manifest reports the same totals, so a
// final scrape and the manifest can be cross-checked number for
// number.
//
// Usage:
//
//	dtnload -mode sim -nodes 40 -rate 1 -horizon 240 -slo-ratio 0.9 -slo-p99 120
//	dtnload -mode cluster -nodes 5 -group 1 -rate 0.5 -metrics 127.0.0.1:9900
//	dtnload -wall 30s -rate 2 -metrics 127.0.0.1:9900   # epochs until wall time is up
//	dtnload -bench BENCH_load.json -bench-rates 0.5,1,2 -gate 0.5
//	dtnload -mode cluster -nodes 5 -group 2 -chaos -chaos-seed 42 -chaos-plan plan.json
//
// With -chaos (cluster mode only) every connection runs through the
// seed-driven turbulence layer — latency, throttling, resets, stalls,
// tears, asymmetric partitions — and each epoch executes the plan's
// scheduled directory blackouts: the directory is crashed at the
// planned point of the contact timeline, the epoch keeps replaying on
// cached membership, and the directory returns at a bumped incarnation
// with every node revalidating against it. The full chaos plan is a
// function of -chaos-seed alone (byte-identical JSON for the same
// seed), is embedded in the -manifest, and can be dumped with
// -chaos-plan for CI determinism byte-compares. Cluster epochs always
// finish with the invariant checker (exactly-once, custody
// conservation, ticket bound, share threshold, incarnation
// monotonicity); any violation fails the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/atomicio"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/cluster/invariant"
	"repro/internal/contact"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dtnload:", err)
		os.Exit(1)
	}
}

// options collects the parsed flag values for one invocation.
type options struct {
	mode    string
	nodes   int
	group   int
	seed    uint64
	spray   bool
	buffer  int
	reoffer int

	rate       float64
	burst      float64
	burstFrac  float64
	burstDwell float64

	horizon float64
	drain   float64
	ictMin  float64
	ictMax  float64

	relays  int
	copies  int
	payload int
	pad     int
	expiry  float64

	crash    float64
	preserve bool

	slo     workload.SLO
	wall    time.Duration
	timeout time.Duration

	chaosOn       bool
	chaosSeed     uint64
	joinWait      time.Duration
	contactBudget time.Duration
	// plan is armed once per run from -chaos-seed; every cluster epoch
	// realizes the same schedule with a fresh runtime clock.
	plan *chaos.Plan
}

func (o options) arrivals() workload.Arrivals {
	return workload.Arrivals{
		Rate:          o.rate,
		Burst:         o.burst,
		BurstFraction: o.burstFrac,
		BurstDwell:    o.burstDwell,
	}
}

func (o options) spec() workload.OpenLoopSpec {
	return workload.OpenLoopSpec{
		Arrivals:     o.arrivals(),
		Horizon:      o.horizon,
		Drain:        o.drain,
		PayloadSize:  o.payload,
		Relays:       o.relays,
		Copies:       o.copies,
		PadTo:        o.pad,
		ExpiryAfter:  o.expiry,
		Seed:         o.seed,
		TrackBuffers: true,
	}
}

// testBeforeExit, when set by a test, is called after the epoch loop
// (and the manifest write) complete but before the metrics server
// shuts down — the one point where a scrape observes the exact totals
// the manifest recorded.
var testBeforeExit func(scrapeURL string)

// run is the testable entry point. ready, when non-nil, is called once
// the metrics endpoint is serving (with "" when -metrics is off).
func run(args []string, out io.Writer, ready func(metricsURL string)) (err error) {
	fs := flag.NewFlagSet("dtnload", flag.ContinueOnError)
	fs.SetOutput(out)
	var o options
	fs.StringVar(&o.mode, "mode", "sim", `backend: "sim" (in-process network) or "cluster" (live loopback TCP cluster)`)
	fs.IntVar(&o.nodes, "nodes", 40, "population size")
	fs.IntVar(&o.group, "group", 5, "onion group size")
	fs.Uint64Var(&o.seed, "seed", 1, "base seed; epoch e runs with seed+e")
	fs.BoolVar(&o.spray, "spray", true, "spray-and-wait multi-copy forwarding")
	fs.IntVar(&o.buffer, "buffer", 0, "per-node custody buffer limit (0 = unlimited)")
	fs.IntVar(&o.reoffer, "reoffer", 0, "buffer-full refusals a copy survives before it is dropped (0 = unlimited)")
	fs.Float64Var(&o.rate, "rate", 1, "target offered load (messages per sim-minute)")
	fs.Float64Var(&o.burst, "burst", 0, "MMPP burst factor: instantaneous rate in burst state (0 or 1 = plain Poisson)")
	fs.Float64Var(&o.burstFrac, "burst-frac", 0.1, "long-run fraction of time in the burst state")
	fs.Float64Var(&o.burstDwell, "burst-dwell", 5, "mean burst episode length (sim minutes)")
	fs.Float64Var(&o.horizon, "horizon", 240, "injection window per epoch (sim minutes)")
	fs.Float64Var(&o.drain, "drain", 240, "extra contact time after injection stops (sim minutes)")
	fs.Float64Var(&o.ictMin, "ict-min", 1, "minimum pairwise mean inter-contact time (sim minutes)")
	fs.Float64Var(&o.ictMax, "ict-max", 20, "maximum pairwise mean inter-contact time (sim minutes)")
	fs.IntVar(&o.relays, "relays", 2, "onion relay groups per message (K)")
	fs.IntVar(&o.copies, "copies", 2, "spray tickets per message (L)")
	fs.IntVar(&o.payload, "payload", 64, "payload bytes per message")
	fs.IntVar(&o.pad, "pad", 0, "pad onions to this size (0 = none)")
	fs.Float64Var(&o.expiry, "expiry", 0, "per-message relative deadline (sim minutes, 0 = none)")
	fs.Float64Var(&o.crash, "crash", 0, "sim mode: per-contact, per-participant crash probability (node churn)")
	fs.BoolVar(&o.preserve, "preserve-custody", false, "sim mode: crashed nodes keep their custody buffers (persistent storage)")
	fs.Float64Var(&o.slo.MinDeliveryRatio, "slo-ratio", 0, "SLO: minimum delivery ratio (0 = unchecked)")
	fs.Float64Var(&o.slo.MaxP50, "slo-p50", 0, "SLO: maximum median delivery latency (sim minutes, 0 = unchecked)")
	fs.Float64Var(&o.slo.MaxP99, "slo-p99", 0, "SLO: maximum p99 delivery latency (sim minutes, 0 = unchecked)")
	fs.DurationVar(&o.wall, "wall", 0, "keep running epochs until this much wall time has elapsed (0 = one epoch)")
	fs.DurationVar(&o.timeout, "timeout", 10*time.Second, "cluster mode: per-connection socket timeout")
	fs.BoolVar(&o.chaosOn, "chaos", false, "cluster mode: run every connection through the seed-driven turbulence layer and execute scheduled directory blackouts")
	fs.Uint64Var(&o.chaosSeed, "chaos-seed", 0, "chaos schedule seed (0 = use -seed); the full plan is a function of this number alone")
	fs.DurationVar(&o.joinWait, "join-wait", 2*time.Second, "cluster mode: directory (re)registration retry window per attempt burst")
	fs.DurationVar(&o.contactBudget, "contact-budget", 0, "cluster mode: wall-clock cap per contact connection (0 = uncapped)")
	var (
		metricsAddr   = fs.String("metrics", "", "serve Prometheus /metrics on this address for the lifetime of the run")
		manifestPath  = fs.String("manifest", "", "write the observability run manifest here on exit")
		chaosPlanPath = fs.String("chaos-plan", "", "write the armed chaos plan JSON here (requires -chaos)")
		benchPath     = fs.String("bench", "", "benchmark mode: write a BENCH_load.json result matrix here and exit")
		benchRates    = fs.String("bench-rates", "0.5,1,2", "comma-separated target rates for -bench")
		gate          = fs.Float64("gate", 0, "bench gate: churn delivery ratio must stay >= gate x the same-rate fault-free ratio (0 = off)")
		prof          = obs.AddProfileFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.mode != "sim" && o.mode != "cluster" {
		return fmt.Errorf("unknown -mode %q (want sim or cluster)", o.mode)
	}
	if o.mode == "cluster" && o.crash > 0 {
		return fmt.Errorf("-crash is sim-only: cluster churn is driven by daemon Kill/Restart, not a probability")
	}
	if o.chaosOn && o.mode != "cluster" {
		return fmt.Errorf("-chaos is cluster-only: turbulence wraps live TCP connections, the sim has its own fault layer (-crash)")
	}
	if *chaosPlanPath != "" && !o.chaosOn {
		return fmt.Errorf("-chaos-plan requires -chaos")
	}

	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if stopErr := prof.Stop(); err == nil {
			err = stopErr
		}
	}()

	// Service mode always collects: live metrics are the point. The
	// batch commands keep their obs-off default; this one is obs-on.
	col := obs.NewCollector()
	obs.Install(col)
	startedAt := time.Now()

	if o.chaosOn {
		cs := o.chaosSeed
		if cs == 0 {
			cs = o.seed
		}
		o.plan = chaos.NewPlan(chaos.Config{Seed: cs, Nodes: o.nodes})
		fmt.Fprintf(out, "dtnload: chaos armed (seed %d: %d slots, %d partitions, %d blackouts, relent after %d)\n",
			cs, len(o.plan.Slots), len(o.plan.Partitions), len(o.plan.Blackouts), o.plan.RelentAfter)
		if *chaosPlanPath != "" {
			if err := atomicio.WriteFile(*chaosPlanPath, append(o.plan.JSON(), '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "dtnload: chaos plan written to %s\n", *chaosPlanPath)
		}
	}

	var ms *obs.MetricsServer
	if *metricsAddr != "" {
		var err error
		ms, err = obs.ServeMetrics(*metricsAddr, col)
		if err != nil {
			return err
		}
		defer func() { _ = ms.Close() }()
		fmt.Fprintf(out, "dtnload: serving metrics at %s\n", ms.URL())
	}
	if ready != nil {
		if ms != nil {
			ready(ms.URL())
		} else {
			ready("")
		}
	}

	var runErr error
	if *benchPath != "" {
		runErr = runBench(out, o, *benchPath, *benchRates, *gate)
	} else {
		runErr = runEpochs(out, o, col)
	}

	if *manifestPath != "" {
		m := obs.BuildManifest(col, "dtnload", args, startedAt)
		m.Seed = o.seed
		if o.plan != nil {
			// The full schedule rides in the manifest's config block, so
			// a violated run reproduces from the manifest alone.
			m.Config = chaosConfigBlock{Chaos: o.plan}
		}
		if err := m.WriteFile(*manifestPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "dtnload: manifest written to %s\n", *manifestPath)
	}
	if testBeforeExit != nil && ms != nil {
		testBeforeExit(ms.URL())
	}
	return runErr
}

// runEpochs drives sustained-load epochs until -wall elapses (at least
// one), printing a summary and an SLO verdict per epoch. A breached
// epoch increments load.slo_breaches; any breach fails the run.
func runEpochs(out io.Writer, o options, col *obs.Collector) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	start := time.Now()
	epoch, breached := 0, 0
	for {
		seed := o.seed + uint64(epoch)
		end := col.StartPhase("epoch")
		res, err := runOnce(o, seed)
		end()
		if err != nil {
			return fmt.Errorf("epoch %d: %w", epoch, err)
		}
		v := res.CheckSLO(o.slo)
		reportEpoch(out, o, epoch, seed, res, v)
		if !v.Pass {
			breached++
			col.Add(obs.LoadSLOBreaches, 1)
		}
		epoch++
		select {
		case <-sig:
			fmt.Fprintf(out, "dtnload: interrupted after %d epochs\n", epoch)
			return breachErr(breached, epoch)
		default:
		}
		if o.wall <= 0 || time.Since(start) >= o.wall {
			break
		}
	}
	return breachErr(breached, epoch)
}

func breachErr(breached, epochs int) error {
	if breached > 0 {
		return fmt.Errorf("SLO breached in %d of %d epochs", breached, epochs)
	}
	return nil
}

func reportEpoch(out io.Writer, o options, epoch int, seed uint64, res *workload.OpenLoopResult, v workload.SLOVerdict) {
	fmt.Fprintf(out, "epoch %d (seed %d, %s): injected %d (offered %.3f/min, target %.3f/min), delivered %d (ratio %.4f)\n",
		epoch, seed, o.mode, res.Injected, res.OfferedRate, o.rate, res.Delivered, res.DeliveryRatio)
	fmt.Fprintf(out, "  latency p50 %s, p99 %s; peak custody %d onions; refused %d, backpressure-dropped %d\n",
		res.FormatLatency(0.50), res.FormatLatency(0.99), res.PeakBuffered,
		res.Totals.Refused, res.Totals.BackpressureDropped)
	if v.Pass {
		fmt.Fprintf(out, "  SLO: PASS\n")
		return
	}
	fmt.Fprintf(out, "  SLO: BREACH\n")
	for _, b := range v.Breaches {
		fmt.Fprintf(out, "    - %s\n", b)
	}
}

// runOnce executes one epoch on the configured backend.
func runOnce(o options, seed uint64) (*workload.OpenLoopResult, error) {
	if o.mode == "cluster" {
		return runClusterEpoch(o, seed)
	}
	return runSimEpoch(o, seed)
}

// runSimEpoch drives the in-process runtime (real onion cryptography,
// synthetic contacts) with the open-loop schedule.
func runSimEpoch(o options, seed uint64) (*workload.OpenLoopResult, error) {
	nw, err := node.NewNetwork(node.Config{
		Nodes:        o.nodes,
		GroupSize:    o.group,
		Seed:         seed,
		Spray:        o.spray,
		BufferLimit:  o.buffer,
		ReofferLimit: o.reoffer,
		Faults:       fault.Config{Crash: o.crash, PreserveCustody: o.preserve},
	})
	if err != nil {
		return nil, err
	}
	g := contact.NewRandom(o.nodes, o.ictMin, o.ictMax, rng.New(seed).Split("graph"))
	return workload.RunOpenLoop(nw, g, o.specWithSeed(seed))
}

func (o options) specWithSeed(seed uint64) workload.OpenLoopSpec {
	s := o.spec()
	s.Seed = seed
	return s
}

// chaosConfigBlock is the manifest's command-specific config block
// when -chaos is armed.
type chaosConfigBlock struct {
	Chaos *chaos.Plan `json:"chaos"`
}

// runClusterEpoch drives a live loopback cluster: every hand-off a
// real TCP connection, the contact process realized as a trace so the
// drive order is deterministic. Arrivals are injected open-loop at
// their scheduled times as the trace advances past them. Every epoch
// ends with the invariant checker; under -chaos the epoch also
// executes the plan's directory blackouts along the contact timeline.
func runClusterEpoch(o options, seed uint64) (*workload.OpenLoopResult, error) {
	var ch *chaos.Chaos
	if o.plan != nil {
		ch = chaos.FromPlan(o.plan)
	}
	c, err := cluster.Launch(cluster.Config{
		Nodes:         o.nodes,
		GroupSize:     o.group,
		Seed:          seed,
		BufferLimit:   o.buffer,
		ReofferLimit:  o.reoffer,
		Spray:         o.spray,
		Timeout:       o.timeout,
		ContactBudget: o.contactBudget,
		JoinWait:      o.joinWait,
		Chaos:         ch,
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = c.Close() }()

	root := rng.New(seed)
	g := contact.NewRandom(o.nodes, o.ictMin, o.ictMax, root.Split("graph"))
	times := o.arrivals().Schedule(o.horizon, root.Split("arrivals"))
	endpoints := root.Split("endpoints")

	type loadMsg struct {
		idx      int
		at       float64
		src, dst contact.NodeID
		id       string
	}
	msgs := make([]loadMsg, len(times))
	for i, at := range times {
		src := contact.NodeID(endpoints.IntN(o.nodes))
		dst := contact.NodeID(endpoints.PickOther(o.nodes, int(src)))
		// 32 hex characters, deterministic per (seed, index), so a
		// delivery is identifiable at its destination daemon.
		msgs[i] = loadMsg{idx: i, at: at, src: src, dst: dst, id: fmt.Sprintf("%016x%016x", seed, uint64(i))}
	}

	tr := cluster.RecordSynthetic(g, o.horizon+o.drain, root.Split("contacts"))

	var records []workload.Record
	pending := make(map[string]int)
	paths := root.Split("load-paths")
	inject := func(m loadMsg) error {
		expiry := 0.0
		if o.expiry > 0 {
			expiry = m.at + o.expiry
		}
		_, err := c.Daemon(m.src).Send(node.SendSpec{
			Dst:     m.dst,
			Payload: make([]byte, o.payload),
			Relays:  o.relays,
			Copies:  o.copies,
			Expiry:  expiry,
			PadTo:   o.pad,
			ID:      m.id,
		}, paths.SplitN("path", m.idx))
		if err != nil {
			// Misconfiguration (e.g. too few groups) fails the run —
			// unlike a refusal, nothing was offered to the network.
			return fmt.Errorf("inject message %d: %w", m.idx, err)
		}
		records = append(records, workload.Record{ID: m.id, Src: m.src, Dst: m.dst, SentAt: m.at})
		pending[m.id] = len(records) - 1
		if col := obs.Active(); col != nil {
			col.Add(obs.LoadInjected, 1)
		}
		return nil
	}

	drill := newBlackoutRunner(ch, len(tr.Contacts))

	next := 0
	peak := 0
	for i, ct := range tr.Contacts {
		if err := drill.step(c, i); err != nil {
			return nil, err
		}
		for next < len(msgs) && msgs[next].at <= ct.Start {
			if err := inject(msgs[next]); err != nil {
				return nil, err
			}
			next++
		}
		if ct.A == ct.B {
			continue
		}
		if _, err := c.Daemon(ct.A).Contact(ct.B, c.Daemon(ct.B).Addr(), ct.Start); err != nil {
			return nil, fmt.Errorf("contact %d-%d at t=%.3f: %w", ct.A, ct.B, ct.Start, err)
		}
		for id, idx := range pending {
			rec := &records[idx]
			if _, ok := c.Daemon(rec.Dst).Node().Delivered(id); ok {
				rec.Delivered = true
				rec.DeliveredAt = ct.Start
				delete(pending, id)
				workload.ObserveDelivery(ct.Start - rec.SentAt)
			}
		}
		buffered := 0
		for i := 0; i < o.nodes; i++ {
			buffered += c.Daemon(contact.NodeID(i)).Node().BufferLen()
		}
		if buffered > peak {
			peak = buffered
		}
	}
	// Open-loop accounting: arrivals after the last realized contact
	// are still injected (and counted) — offered load never adapts to
	// the contact process drying up.
	for ; next < len(msgs); next++ {
		if err := inject(msgs[next]); err != nil {
			return nil, err
		}
	}
	// A blackout scheduled to outlast the contact trace still ends with
	// the directory restarted and the fleet reconciled.
	if err := drill.finish(c); err != nil {
		return nil, err
	}

	// Always-on safety: a cluster epoch that breaks exactly-once,
	// conservation, the ticket bound, the share threshold, or
	// incarnation monotonicity fails the run — chaotic or not.
	spec := invariant.Spec{Messages: make([]invariant.Message, len(msgs))}
	for i, m := range msgs {
		spec.Messages[i] = invariant.Message{ID: m.id, Src: m.src, Dst: m.dst, Copies: o.copies}
	}
	if rep := invariant.Check(c, spec); !rep.Clean() {
		return nil, rep.Err()
	}

	res := &workload.OpenLoopResult{
		Records:      records,
		Injected:     len(records),
		PeakBuffered: peak,
		Totals:       c.TotalStats(),
	}
	for _, r := range records {
		if r.Delivered {
			res.Delivered++
			res.Latencies = append(res.Latencies, r.DeliveredAt-r.SentAt)
		}
	}
	if res.Injected > 0 {
		res.DeliveryRatio = float64(res.Delivered) / float64(res.Injected)
	}
	res.OfferedRate = float64(res.Injected) / o.horizon
	return res, nil
}

// blackoutRunner realizes the plan's directory blackouts — expressed
// as run fractions — on the contact-index axis, the epoch's only
// deterministic notion of progress. At an outage's start index the
// directory is crashed and a node's bounded revalidation is proven to
// fail (this is where retry.attempts and breaker.opens accrue); at its
// end index the directory restarts at a bumped incarnation and the
// whole fleet reconciles.
type blackoutRunner struct {
	outages []dirOutage
	dark    bool
}

// dirOutage is one planned blackout mapped to contact indices.
type dirOutage struct{ start, end int }

func newBlackoutRunner(ch *chaos.Chaos, contacts int) *blackoutRunner {
	r := &blackoutRunner{}
	if ch == nil || contacts == 0 {
		return r
	}
	for _, b := range ch.Blackouts() {
		start := int(b.StartFrac * float64(contacts))
		end := int(b.EndFrac * float64(contacts))
		if end <= start {
			end = start + 1
		}
		r.outages = append(r.outages, dirOutage{start: start, end: end})
	}
	return r
}

func (r *blackoutRunner) step(c *cluster.Cluster, i int) error {
	if len(r.outages) == 0 {
		return nil
	}
	switch o := r.outages[0]; {
	case !r.dark && i >= o.start:
		c.Dir().Stop()
		r.dark = true
		if col := obs.Active(); col != nil {
			col.Add(obs.ChaosBlackouts, 1)
		}
		// The join window must fail against a dark directory, not hang
		// — and the failed attempt must not burn the node's incarnation.
		d := c.Nodes()[0]
		before := d.Incarnation()
		if err := d.Revalidate(); err == nil {
			return fmt.Errorf("blackout drill: revalidation succeeded against a dark directory")
		}
		if d.Incarnation() != before {
			return fmt.Errorf("blackout drill: failed revalidation burned incarnation %d -> %d", before, d.Incarnation())
		}
	case r.dark && i >= o.end:
		return r.restore(c)
	}
	return nil
}

// restore brings the directory back and reconciles the fleet.
func (r *blackoutRunner) restore(c *cluster.Cluster) error {
	if err := c.Dir().Restart(); err != nil {
		return fmt.Errorf("blackout drill: restart directory: %w", err)
	}
	if err := c.Revalidate(); err != nil {
		return fmt.Errorf("blackout drill: reconcile after blackout: %w", err)
	}
	r.dark = false
	r.outages = r.outages[1:]
	return nil
}

// finish closes out an outage still open when the trace ends.
func (r *blackoutRunner) finish(c *cluster.Cluster) error {
	if r.dark {
		return r.restore(c)
	}
	return nil
}

// benchResult is one row of the BENCH_load.json matrix.
type benchResult struct {
	Rate        float64 `json:"rate"`
	Churn       bool    `json:"churn"`
	Injected    int     `json:"injected"`
	Delivered   int     `json:"delivered"`
	Ratio       float64 `json:"ratio"`
	OfferedRate float64 `json:"offered_rate"`
	// P50Min/P99Min are sim-minutes; -1 flags "nothing delivered"
	// (the quantile is undefined, not zero).
	P50Min     float64 `json:"p50_min"`
	P99Min     float64 `json:"p99_min"`
	WallNanos  int64   `json:"wall_nanos"`
	MsgsPerSec float64 `json:"msgs_per_sec"`
}

type benchFile struct {
	Seed      uint64        `json:"seed"`
	Mode      string        `json:"mode"`
	Nodes     int           `json:"nodes"`
	GroupSize int           `json:"group_size"`
	Horizon   float64       `json:"horizon_min"`
	Drain     float64       `json:"drain_min"`
	CrashRate float64       `json:"crash_rate"`
	Gate      float64       `json:"gate"`
	Results   []benchResult `json:"results"`
}

// runBench sweeps the configured target rates fault-free, re-runs the
// highest rate with node churn, and writes the matrix atomically. The
// only gated quantity is the paired churn-vs-fault-free delivery
// ratio at the shared rate — a sim-time ratio, so the gate holds on
// any machine; wall-clock throughput is recorded but never gated.
func runBench(out io.Writer, o options, path, ratesCSV string, gate float64) error {
	rates, err := parseRates(ratesCSV)
	if err != nil {
		return err
	}
	if gate < 0 || gate > 1 {
		return fmt.Errorf("-gate %v out of [0,1]", gate)
	}
	crash := o.crash
	if crash <= 0 {
		crash = 0.02
	}

	bench := benchFile{
		Seed: o.seed, Mode: o.mode, Nodes: o.nodes, GroupSize: o.group,
		Horizon: o.horizon, Drain: o.drain, CrashRate: crash, Gate: gate,
	}
	measure := func(rate float64, churn bool) (benchResult, error) {
		ro := o
		ro.rate = rate
		ro.crash = 0
		if churn {
			ro.crash = crash
		}
		start := time.Now()
		res, err := runOnce(ro, o.seed)
		wall := time.Since(start)
		if err != nil {
			return benchResult{}, err
		}
		row := benchResult{
			Rate: rate, Churn: churn,
			Injected: res.Injected, Delivered: res.Delivered,
			Ratio: res.DeliveryRatio, OfferedRate: res.OfferedRate,
			P50Min: -1, P99Min: -1,
			WallNanos:  wall.Nanoseconds(),
			MsgsPerSec: float64(res.Injected) / wall.Seconds(),
		}
		if p50, ok := res.LatencyQuantile(0.50); ok {
			row.P50Min = p50
		}
		if p99, ok := res.LatencyQuantile(0.99); ok {
			row.P99Min = p99
		}
		fmt.Fprintf(out, "bench: rate %.3f/min churn=%v: ratio %.4f, p99 %s, %d msgs in %v (%.0f msgs/sec)\n",
			rate, churn, row.Ratio, res.FormatLatency(0.99), res.Injected, wall.Round(time.Millisecond), row.MsgsPerSec)
		return row, nil
	}

	for _, rate := range rates {
		row, err := measure(rate, false)
		if err != nil {
			return err
		}
		bench.Results = append(bench.Results, row)
	}
	churnRate := rates[len(rates)-1]
	churnRow, err := measure(churnRate, true)
	if err != nil {
		return err
	}
	bench.Results = append(bench.Results, churnRow)

	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := atomicio.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "bench: wrote %d results to %s\n", len(bench.Results), path)

	if gate > 0 {
		var clean benchResult
		for _, r := range bench.Results {
			if !r.Churn && r.Rate == churnRate {
				clean = r
			}
		}
		if churnRow.Ratio < gate*clean.Ratio {
			return fmt.Errorf("bench gate: churn delivery ratio %.4f < %.2f x fault-free %.4f at rate %.3f",
				churnRow.Ratio, gate, clean.Ratio, churnRate)
		}
		fmt.Fprintf(out, "bench: gate ok (churn ratio %.4f >= %.2f x fault-free %.4f)\n",
			churnRow.Ratio, gate, clean.Ratio)
	}
	return nil
}

func parseRates(csv string) ([]float64, error) {
	var rates []float64
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		r, err := strconv.ParseFloat(f, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad -bench-rates entry %q", f)
		}
		rates = append(rates, r)
	}
	if len(rates) < 1 {
		return nil, fmt.Errorf("-bench-rates is empty")
	}
	sort.Float64s(rates)
	return rates, nil
}
