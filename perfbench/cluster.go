package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/invariant"
	"repro/internal/contact"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// clusterLoad drives a live loopback cluster as `dtnload -mode cluster`
// does: one contact in flight, each trace contact a Daemon.Contact over
// TCP, and open-loop Daemon.Send injection at the arrivals' sim times.
// Its obs collector is on in every pass, as dtnload's always is.
type clusterLoad struct {
	spec  loadSpec
	seed  uint64
	trace *trace.Trace
	msgs  []message
}

func (w *clusterLoad) prepare(cfg config) ([]float64, error) {
	w.spec = loadSpec{
		nodes: 20, group: 5, relays: 2, copies: 2,
		ictMin: 1, ictMax: 20, rate: 1, horizon: 360, drain: 360, payload: 64,
	}
	if cfg.tiny {
		w.spec.horizon, w.spec.drain = 20, 20
	}
	w.seed = cfg.seed
	root := rng.New(cfg.seed)
	g := stratifiedGraph(w.spec.nodes, w.spec.ictMin, w.spec.ictMax, root.Split("graph"))
	w.trace = cluster.RecordSynthetic(g, w.spec.horizon+w.spec.drain, root.Split("contacts"))
	w.msgs = arrivals(w.spec, cfg.seed, root.Split("arrivals"))
	var setups []float64
	for k := 0; k < launchReps; k++ {
		c, secs, err := w.launch(nil)
		if err != nil {
			return nil, err
		}
		if err := c.Close(); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	return setups, nil
}

// launchReps is how many clusters set-up launches and closes besides
// the one per pass, so set-up time is a median over several launches.
const launchReps = 8

// launch starts the loopback cluster: the directory, every daemon, and
// their registrations.
func (w *clusterLoad) launch(tr *tracer) (*cluster.Cluster, float64, error) {
	t0 := time.Now()
	m := tr.begin()
	c, err := cluster.Launch(cluster.Config{
		Nodes: w.spec.nodes, GroupSize: w.spec.group, Seed: w.seed, Spray: true,
		Timeout: 10 * time.Second, JoinWait: 2 * time.Second,
	})
	tr.end("cluster.launch", m)
	return c, time.Since(t0).Seconds(), err
}

func (w *clusterLoad) pass(cfg config, tr *tracer) (*passResult, error) {
	p := &passResult{layers: map[string]float64{}}
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)

	c, secs, err := w.launch(tr)
	if err != nil {
		return nil, err
	}
	p.setup = []float64{secs}
	defer func() { _ = c.Close() }()

	log := newDeliveryLog(w.msgs, w.spec.nodes)
	paths := rng.New(w.seed).Split("paths")
	send := func(i int) {
		msg := w.msgs[i]
		p.attempted++
		m := tr.begin()
		_, err := c.Daemon(msg.src).Send(node.SendSpec{
			Dst: msg.dst, Payload: make([]byte, w.spec.payload),
			Relays: w.spec.relays, Copies: w.spec.copies, ID: msg.id,
		}, paths.SplitN("path", i))
		tr.end("cluster.send", m)
		if err != nil {
			p.failed++
			return
		}
		log.sent(i)
	}
	var offered, transfers int
	next := 0
	win := openWindow(p)
	probeStep := (w.spec.horizon + w.spec.drain) / probesPerPass
	probeAt := probeStep
	for _, ct := range w.trace.Contacts {
		win.checkpointUntil(ct.Start, &probeAt, probeStep)
		for next < len(w.msgs) && w.msgs[next].at <= ct.Start {
			send(next)
			next++
		}
		if ct.A == ct.B {
			continue
		}
		p.attempted++
		t := time.Now()
		m := tr.begin()
		rep, err := c.Daemon(ct.A).Contact(ct.B, c.Daemon(ct.B).Addr(), ct.Start)
		tr.end("cluster.contact", m)
		p.ops = append(p.ops, float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil {
			p.failed++
		}
		offered += rep.Offered
		transfers += rep.Transfers
		if rep.Deliveries > 0 {
			log.collect(ct.Start, ct.A, ct.B, func(id contact.NodeID) *node.Node { return c.Daemon(id).Node() })
		}
	}
	for ; next < len(w.msgs); next++ {
		send(next)
	}
	win.close()
	retries := col.Get(obs.RetryAttempts)
	p.failed += retries
	p.attempted += retries

	var checkErr error
	expect := w.msgs
	if cfg.corrupt {
		expect = misaddress(w.msgs, log, w.spec.nodes)
	}
	spec := invariant.Spec{Messages: make([]invariant.Message, len(expect))}
	for i, msg := range expect {
		spec.Messages[i] = invariant.Message{ID: msg.id, Src: msg.src, Dst: msg.dst, Copies: w.spec.copies}
	}
	if rep := invariant.Check(c, spec); !rep.Clean() {
		checkErr = fmt.Errorf("%w: %v", errCheck, rep.Err())
	}
	total := c.TotalStats()
	if distinct := countDeliveries(c); distinct != len(log.delivered) {
		checkErr = fmt.Errorf("%w: the harness saw %d deliveries, the daemons recorded %d", errCheck, len(log.delivered), distinct)
	}
	if len(log.delivered) == 0 {
		checkErr = fmt.Errorf("%w: no message was delivered", errCheck)
	}
	p.digest = log.digest(fmt.Sprintf("%+v", cluster.Subset(total)))
	log.simStats(p)

	contacts := float64(len(p.ops))
	bytesOut, framesOut := float64(col.Get(obs.ClusterBytesOut)), float64(col.Get(obs.ClusterFramesOut))
	p.layers["cluster.bytes_per_delivered"] = ratio(bytesOut, float64(len(log.delivered)))
	p.layers["cluster.frames_per_contact"] = ratio(framesOut, contacts)
	p.summary = append(p.summary, fmt.Sprintf("%.0f frames, %.0f bytes, %d dials, %d of %d offers useful",
		framesOut, bytesOut, col.Get(obs.ClusterDials), transfers, offered))
	if tr != nil {
		cs, ss := tr.seconds("cluster.contact"), tr.seconds("cluster.send")
		p.layers["cluster.contact_s"] = cs
		p.layers["cluster.send_s"] = ss
		p.layers["cluster.dials_per_contact"] = ratio(float64(col.Get(obs.ClusterDials)), contacts)
		p.layers["cluster.bytes_out"] = bytesOut
		p.layers["cluster.frames_out"] = framesOut
		p.layers["cluster.useful_offer_ratio"] = ratio(float64(transfers), float64(offered))
		p.layers["cluster.allocs_per_contact"] = ratio(float64(tr.allocCount("cluster.contact")), contacts)
		p.layers["cluster.launch_s"] = tr.seconds("cluster.launch")
		p.layers["retry.attempts"] = float64(retries)
		p.layers["breaker.opens"] = float64(col.Get(obs.BreakerOpens))
		p.layers["bench.harness_s"] = p.wall - cs - ss
	}
	return p, checkErr
}

func (w *clusterLoad) close() error { return nil }

// countDeliveries is the number of distinct messages the daemons
// recorded as delivered.
func countDeliveries(c *cluster.Cluster) int {
	n := 0
	for _, d := range c.Nodes() {
		n += len(d.Node().DeliveryRecords())
	}
	return n
}
