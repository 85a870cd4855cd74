package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/contact"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// loadSpec is one open-loop runtime job: a population, a protocol
// configuration and an arrival process in simulated minutes.
type loadSpec struct {
	nodes, group, relays, copies int
	ictMin, ictMax               float64
	rate, horizon, drain         float64
	payload                      int
}

// message is one open-loop arrival.
type message struct {
	at       float64
	src, dst contact.NodeID
	id       string
}

// stratifiedGraph draws every pair's mean inter-contact time from
// U[minICT, maxICT), as contact.NewRandom does, but stratified: the
// pairs receive a seeded permutation of one draw from each of P equal
// strata. The paper's distribution is kept while the total contact
// rate, and with it the work of a run, no longer varies by several
// percent from seed to seed.
func stratifiedGraph(n int, minICT, maxICT float64, s *rng.Stream) *contact.Graph {
	pairs := n * (n - 1) / 2
	perm := s.Perm(pairs)
	g := contact.NewGraph(n)
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			u := (float64(perm[k]) + s.Float64()) / float64(pairs)
			g.SetRate(contact.NodeID(i), contact.NodeID(j), 1/(minICT+u*(maxICT-minICT)))
			k++
		}
	}
	return g
}

// arrivals draws a Poisson arrival process conditioned on exactly
// rate*horizon messages (sorted uniform times), with uniformly random
// distinct endpoints and IDs fixed by (seed, index) so a delivery is
// identifiable at its destination.
func arrivals(spec loadSpec, seed uint64, s *rng.Stream) []message {
	count := int(math.Round(spec.rate * spec.horizon))
	times := make([]float64, count)
	for i := range times {
		times[i] = s.Float64() * spec.horizon
	}
	sort.Float64s(times)
	msgs := make([]message, count)
	for i, at := range times {
		src := s.IntN(spec.nodes)
		dst := s.PickOther(spec.nodes, src)
		msgs[i] = message{at: at, src: contact.NodeID(src), dst: contact.NodeID(dst), id: fmt.Sprintf("%016x%016x", seed, uint64(i))}
	}
	return msgs
}

// deliveryLog tracks the open-loop messages: which are pending at each
// destination and the latency of each delivery. Deliveries are looked
// for only at the two endpoints of a contact that reported one, so the
// harness stays O(1) per contact and cannot hide the runtime's cost.
type deliveryLog struct {
	msgs      []message
	pending   [][]int // message indices awaiting delivery, by destination
	latencies []float64
	delivered map[string]float64 // id -> delivery time
}

func newDeliveryLog(msgs []message, nodes int) *deliveryLog {
	return &deliveryLog{msgs: msgs, pending: make([][]int, nodes), delivered: map[string]float64{}}
}

func (l *deliveryLog) sent(i int) {
	d := l.msgs[i].dst
	l.pending[d] = append(l.pending[d], i)
}

// collect records every pending message that has reached either
// endpoint of a contact at time t; nodeOf resolves an endpoint's node.
func (l *deliveryLog) collect(t float64, a, b contact.NodeID, nodeOf func(contact.NodeID) *node.Node) {
	for _, dst := range [2]contact.NodeID{a, b} {
		n, q := nodeOf(dst), l.pending[dst]
		for k := 0; k < len(q); {
			m := l.msgs[q[k]]
			if _, ok := n.DeliveredHops(m.id); !ok {
				k++
				continue
			}
			l.delivered[m.id] = t
			l.latencies = append(l.latencies, t-m.at)
			q[k] = q[len(q)-1]
			q = q[:len(q)-1]
		}
		l.pending[dst] = q
	}
}

// digest hashes the delivered set with delivery times plus extra, the
// pass's deterministic outcome.
func (l *deliveryLog) digest(extra string) string {
	ids := make([]string, 0, len(l.delivered))
	for id := range l.delivered {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s %x\n", id, math.Float64bits(l.delivered[id]))
	}
	h.Write([]byte(extra))
	return hex.EncodeToString(h.Sum(nil))
}

// simStats fills the simulated delivery statistics and host-time
// percentiles every runtime pass reports.
func (l *deliveryLog) simStats(p *passResult) {
	p.layers["runtime.delivery_ratio"] = ratio(float64(len(l.delivered)), float64(len(l.msgs)))
	if len(l.latencies) > 0 {
		p.layers["runtime.latency_p50_min"] = stats.Quantile(l.latencies, 0.5)
		p.layers["runtime.latency_p99_min"] = stats.Quantile(l.latencies, 0.99)
	}
	if len(p.ops) > 0 {
		p.layers["runtime.contact_p50_us"] = stats.Quantile(p.ops, 0.5)
		p.layers["runtime.contact_p99_us"] = stats.Quantile(p.ops, 0.99)
	}
	p.layers["runtime.delivered_per_s"] = ratio(float64(len(l.delivered)), p.wall)
	p.summary = append(p.summary, fmt.Sprintf("%d of %d messages delivered over %d contacts; latency p50 %.3f p99 %.3f sim-min",
		len(l.delivered), len(l.msgs), len(p.ops), p.layers["runtime.latency_p50_min"], p.layers["runtime.latency_p99_min"]))
}

// antiPackets is one long in-process full-crypto run: the benchmark's
// own sim.Protocol calls Node.Send for each due arrival and
// Network.Meet for each contact of the synthetic process.
type antiPackets struct {
	spec  loadSpec
	cfg   node.Config
	graph *contact.Graph
	msgs  []message
}

func (w *antiPackets) prepare(cfg config) ([]float64, error) {
	w.spec = loadSpec{
		nodes: 40, group: 5, relays: 3, copies: 3,
		ictMin: 1, ictMax: 30, rate: 1, horizon: 600, drain: 600, payload: 64,
	}
	if cfg.tiny {
		w.spec.nodes, w.spec.relays, w.spec.horizon, w.spec.drain = 20, 2, 40, 40
	}
	w.cfg = node.Config{
		Nodes: w.spec.nodes, GroupSize: w.spec.group, Seed: cfg.seed, Spray: true,
		BufferLimit: 8, ReofferLimit: 3, AntiPackets: true,
	}
	root := rng.New(cfg.seed)
	w.graph = stratifiedGraph(w.spec.nodes, w.spec.ictMin, w.spec.ictMax, root.Split("graph"))
	w.msgs = arrivals(w.spec, cfg.seed, root.Split("arrivals"))
	// Provisioning takes well under a millisecond, so one sample per
	// pass would make set-up time mostly timer and cache noise.
	var setups []float64
	for k := 0; k < provisionReps; k++ {
		t0 := time.Now()
		if _, err := node.NewNetwork(w.cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setups, nil
}

// provisionReps is how many networks runtime-antipackets provisions in
// set-up besides the one per pass.
const provisionReps = 100

// rtProtocol drives one pass.
type rtProtocol struct {
	w     *antiPackets
	nw    *node.Network
	tr    *tracer
	log   *deliveryLog
	paths *rng.Stream
	next  int
	p     *passResult
	win   *timedWindow
	// probeAt is the simulated time of the next host probe.
	probeAt, probeStep float64
}

func (r *rtProtocol) OnContact(t float64, a, b contact.NodeID) {
	r.win.checkpointUntil(t, &r.probeAt, r.probeStep)
	cb := r.tr.begin()
	for r.next < len(r.w.msgs) && r.w.msgs[r.next].at <= t {
		r.send(r.next)
		r.next++
	}
	r.p.attempted++
	t0 := time.Now()
	m := r.tr.begin()
	rep := r.nw.Meet(a, b, t)
	r.tr.end("node.meet", m)
	r.p.ops = append(r.p.ops, float64(time.Since(t0).Nanoseconds())/1e3)
	if rep.Deliveries > 0 {
		r.log.collect(t, a, b, r.nw.Node)
	}
	r.tr.end("des.callback", cb)
}

func (r *rtProtocol) Done() bool { return false }

func (r *rtProtocol) send(i int) {
	msg := r.w.msgs[i]
	r.p.attempted++
	m := r.tr.begin()
	_, err := r.nw.Node(msg.src).Send(node.SendSpec{
		Dst: msg.dst, Payload: make([]byte, r.w.spec.payload),
		Relays: r.w.spec.relays, Copies: r.w.spec.copies, ID: msg.id,
	}, r.paths.SplitN("path", i))
	r.tr.end("node.send", m)
	if err != nil {
		r.p.failed++
		return
	}
	r.log.sent(i)
}

func (w *antiPackets) pass(cfg config, tr *tracer) (*passResult, error) {
	p := &passResult{layers: map[string]float64{}}
	t0 := time.Now()
	nw, err := node.NewNetwork(w.cfg)
	if err != nil {
		return nil, err
	}
	p.setup = []float64{time.Since(t0).Seconds()}

	var col *obs.Collector
	if tr != nil {
		col = obs.NewCollector()
		obs.Install(col)
		defer obs.Install(nil)
	}
	root := rng.New(cfg.seed)
	step := (w.spec.horizon + w.spec.drain) / probesPerPass
	r := &rtProtocol{w: w, nw: nw, tr: tr, log: newDeliveryLog(w.msgs, w.spec.nodes), paths: root.Split("paths"), p: p,
		probeAt: step, probeStep: step}
	r.win = openWindow(p)
	m := tr.begin()
	sim.RunSynthetic(w.graph, w.spec.horizon+w.spec.drain, root.Split("contacts"), r)
	tr.end("des.run", m)
	for ; r.next < len(w.msgs); r.next++ {
		r.send(r.next)
	}
	r.win.close()

	total := nw.TotalStats()
	expect := w.msgs
	if cfg.corrupt {
		expect = misaddress(w.msgs, r.log, w.spec.nodes)
	}
	checkErr := checkNetwork(nw, w.spec, expect, r.log, total)
	p.digest = r.log.digest(fmt.Sprintf("%+v", total))
	r.log.simStats(p)
	if tr != nil {
		// The host probes run inside des.run, outside its callbacks.
		desSelf := tr.seconds("des.run") - tr.seconds("des.callback") - p.probeS
		meet, send := tr.seconds("node.meet"), tr.seconds("node.send")
		p.layers["des.self_s"] = desSelf
		p.layers["des.events"] = float64(col.Get(obs.DESEvents))
		p.layers["node.meet_s"] = meet
		p.layers["node.meet_calls"] = float64(tr.calls("node.meet"))
		p.layers["node.allocs_per_contact"] = ratio(float64(tr.allocCount("node.meet")), float64(tr.calls("node.meet")))
		p.layers["node.send_s"] = send
		p.layers["node.handoffs"] = float64(col.Get(obs.NodeHandoffs))
		p.layers["node.refusals"] = float64(col.Get(obs.NodeRefusals))
		p.layers["node.purged"] = float64(total.Purged)
		p.layers["node.custody_high_water"] = float64(col.Get(obs.NodeCustodyHighWater))
		p.layers["bench.harness_s"] = p.wall - desSelf - meet - send
	}
	return p, checkErr
}

func (w *antiPackets) close() error { return nil }

// misaddress returns a copy of msgs in which the first delivered
// message names the wrong destination: the expectation a self-test
// feeds a checker to see it fail.
func misaddress(msgs []message, log *deliveryLog, nodes int) []message {
	out := append([]message(nil), msgs...)
	for i := range out {
		if _, ok := log.delivered[out[i].id]; ok {
			out[i].dst = (out[i].dst + 1) % contact.NodeID(nodes)
			break
		}
	}
	return out
}

// checkNetwork verifies a finished in-process run: every message was
// sent, none was delivered twice or anywhere but its destination, the
// harness saw exactly the deliveries the nodes recorded, every
// successful hand-off became exactly one custody or delivery, and no
// message holds more spray tickets than its copy budget.
func checkNetwork(nw *node.Network, spec loadSpec, msgs []message, log *deliveryLog, total node.Stats) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
	}
	if total.Sent != len(msgs) {
		return fail("%d messages sent, %d scheduled", total.Sent, len(msgs))
	}
	dstOf := make(map[string]contact.NodeID, len(msgs))
	for _, m := range msgs {
		dstOf[m.id] = m.dst
	}
	distinct := 0
	tickets := map[string]int{}
	for i := 0; i < spec.nodes; i++ {
		n := nw.Node(contact.NodeID(i))
		for _, rec := range n.DeliveryRecords() {
			distinct++
			if dst, ok := dstOf[rec.MsgID]; !ok || dst != contact.NodeID(i) {
				return fail("message %s delivered at node %d, addressed to %d", rec.MsgID, i, dst)
			}
		}
		for _, c := range n.CustodySnapshot() {
			tickets[c.MsgID] += c.Tickets
		}
	}
	if total.Delivered != distinct {
		return fail("%d deliveries recorded for %d distinct messages (a duplicate delivery)", total.Delivered, distinct)
	}
	if len(log.delivered) != distinct {
		return fail("the harness saw %d deliveries, the nodes recorded %d", len(log.delivered), distinct)
	}
	if total.Forwarded != total.Carried+total.Delivered {
		return fail("%d hand-offs forwarded but %d carried + %d delivered", total.Forwarded, total.Carried, total.Delivered)
	}
	for id, t := range tickets {
		if t > spec.copies {
			return fail("message %s holds %d tickets, budget %d", id, t, spec.copies)
		}
	}
	if distinct == 0 {
		return fail("no message was delivered")
	}
	return nil
}
