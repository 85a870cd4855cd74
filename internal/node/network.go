package node

import (
	"errors"
	"fmt"

	"repro/internal/bundle"
	"repro/internal/contact"
	"repro/internal/fault"
	"repro/internal/groups"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The carried/bundle conversions live in wire.go.

// Config configures a runtime network.
type Config struct {
	Nodes     int
	GroupSize int
	Seed      uint64
	// Spray enables source spray-and-wait hand-offs: a holder with
	// spare tickets may give a copy to any node, which carries the
	// ciphertext until it meets a member of the addressed group.
	Spray bool
	// Faults configures the deterministic fault-injection layer:
	// truncated transfers (retried in-contact, then re-offered at the
	// next meeting), corrupting byte flips (rejected by the bundle CRC
	// or onion AEAD, dropped gracefully), duplicate redelivery
	// (suppressed by the receiver's seen log), and node churn.
	Faults fault.Config
	// CorruptProb is the legacy single-knob spelling of
	// Faults.Corrupt: each hand-off is corrupted (one flipped byte)
	// with this probability. It is folded into Faults at construction
	// and kept for config compatibility.
	CorruptProb float64
	// BufferLimit caps each node's custody buffer (0 = unlimited).
	// A full node refuses new custody — the sender retries with other
	// peers — but final deliveries are always accepted.
	BufferLimit int
	// ReofferLimit caps how many buffer-full refusals a carried copy
	// survives before its holder drops it (0 = unlimited re-offers, the
	// historical behavior). Under sustained load this bounds the work a
	// hopeless copy can generate instead of letting it be re-offered to
	// full peers forever.
	ReofferLimit int
	// AntiPackets enables delivery acknowledgements ("immunity" in the
	// epidemic-routing literature): destinations gossip the IDs of
	// delivered messages at every contact, and custodians purge stale
	// copies, freeing buffers that multi-copy forwarding would
	// otherwise occupy forever.
	AntiPackets bool
}

// Network owns the nodes, the shared group directory, and the
// fault-injection plan. Meet is safe for concurrent use.
type Network struct {
	cfg   Config
	dir   *groups.Directory
	nodes []*Node
	plan  *fault.Plan
}

// NewNetwork provisions n nodes, a random onion-group partition of
// size g, and all group and node keys.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Nodes < 3 {
		return nil, fmt.Errorf("node: need at least 3 nodes, got %d", cfg.Nodes)
	}
	if cfg.CorruptProb < 0 || cfg.CorruptProb > 1 {
		return nil, fmt.Errorf("node: corrupt probability %v out of [0,1]", cfg.CorruptProb)
	}
	if cfg.BufferLimit < 0 {
		return nil, fmt.Errorf("node: negative buffer limit %d", cfg.BufferLimit)
	}
	if cfg.ReofferLimit < 0 {
		return nil, fmt.Errorf("node: negative re-offer limit %d", cfg.ReofferLimit)
	}
	// Fold the legacy corruption knob into the fault config. The draw
	// sequence (one Bernoulli per hand-off, one IntN on a hit, flip of
	// one bit) is identical to the pre-fault-layer behavior, so
	// CorruptProb-seeded runs reproduce their historical schedules.
	faults := cfg.Faults
	if cfg.CorruptProb > 0 && faults.Corrupt == 0 {
		faults.Corrupt = cfg.CorruptProb
	}
	if err := faults.Validate(); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	root := rng.New(cfg.Seed)
	dir, err := groups.NewPartition(cfg.Nodes, cfg.GroupSize, root.Split("partition"))
	if err != nil {
		return nil, err
	}
	if err := dir.ProvisionKeys(); err != nil {
		return nil, err
	}
	nw := &Network{cfg: cfg, dir: dir, plan: fault.NewPlan(faults, root.Split("faults"))}
	nw.nodes = make([]*Node, cfg.Nodes)
	for i := range nw.nodes {
		nw.nodes[i] = newNode(contact.NodeID(i), dir, cfg.BufferLimit)
		nw.nodes[i].reofferLimit = cfg.ReofferLimit
	}
	return nw, nil
}

// Node returns the node with the given ID.
func (nw *Network) Node(id contact.NodeID) *Node {
	if id < 0 || int(id) >= len(nw.nodes) {
		panic(fmt.Sprintf("node: id %d out of range", id))
	}
	return nw.nodes[id]
}

// Directory returns the shared onion-group directory.
func (nw *Network) Directory() *groups.Directory { return nw.dir }

// MeetReport summarizes one contact.
type MeetReport struct {
	Transfers  int // onions that changed custody
	Deliveries int // payloads that reached their destination
	Rejected   int // hand-offs rejected (tampering, truncation)
	Refused    int // custody offers refused by a full buffer (subset of Rejected)
	Dropped    int // copies dropped after exhausting their re-offer budget
	Truncated  int // hand-offs torn mid-transfer
	Corrupted  int // hand-offs damaged by byte flips
	Retried    int // in-contact retransmissions after a tear
	Duplicates int // redeliveries suppressed by the receiver
}

// Meet executes a contact between nodes x and y at the given time:
// expired onions are dropped, then each side hands over every onion
// the peer is eligible for. Both nodes are locked in ID order for the
// whole exchange, so concurrent Meets never double-spend a ticket.
func (nw *Network) Meet(x, y contact.NodeID, now float64) MeetReport {
	if x == y {
		return MeetReport{}
	}
	a, b := nw.Node(x), nw.Node(y)
	first, second := a, b
	if second.id < first.id {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()

	// Node churn: each participant may crash and restart at the start
	// of the contact. Rolls are drawn in ID order so a contact's fate
	// does not depend on the direction it was reported in. Crash()
	// consumes no stream state when churn is disabled, keeping
	// zero-fault schedules byte-identical.
	if nw.plan.CrashEnabled() {
		preserve := nw.plan.Config().PreserveCustody
		if nw.plan.Crash() {
			first.crashLocked(preserve)
		}
		if nw.plan.Crash() {
			second.crashLocked(preserve)
		}
	}

	a.expireLocked(now)
	b.expireLocked(now)
	if nw.cfg.AntiPackets {
		exchangeAcksLocked(a, b)
	}

	var rep MeetReport
	// One observability guard per contact; nil when disabled. The
	// collector is threaded through the exchange so per-hand-off
	// metrics avoid repeated atomic loads.
	col := obs.Active()
	nw.exchangeLocked(a, b, &rep, col)
	nw.exchangeLocked(b, a, &rep, col)
	if col != nil {
		col.Add(obs.NodeContacts, 1)
		col.Add(obs.NodeHandoffs, int64(rep.Transfers))
		col.Add(obs.NodeDeliveries, int64(rep.Deliveries))
		col.Add(obs.NodeRejected, int64(rep.Rejected))
		col.Add(obs.NodeRefusals, int64(rep.Refused))
		col.Add(obs.NodeBackpressureDrops, int64(rep.Dropped))
		col.Add(obs.NodeTruncated, int64(rep.Truncated))
		col.Add(obs.NodeRetransmissions, int64(rep.Retried))
		col.Add(obs.NodeTamperDrops, int64(rep.Corrupted))
		col.Add(obs.NodeDedupHits, int64(rep.Duplicates))
		col.Observe(obs.HistContactTransfers, int64(rep.Transfers))
		occupancy := len(a.buffer)
		if len(b.buffer) > occupancy {
			occupancy = len(b.buffer)
		}
		col.RecordMax(obs.NodeCustodyHighWater, int64(occupancy))
	}
	return rep
}

// exchangeAcksLocked merges both parties' acknowledgement sets and
// purges any buffered copy of an already-delivered message. Each side
// learns only the tail of the peer's ack log past its mark for that
// peer: everything before the mark was learned at an earlier contact
// and acks are never forgotten, so the result is the full set union at
// O(new acks) cost. Both locks are held.
func exchangeAcksLocked(a, b *Node) {
	b.mergeAcksLocked(a)
	a.mergeAcksLocked(b)
}

// mergeAcksLocked learns every ack peer logged since n last merged from
// it and advances n's mark for peer. Both locks are held.
func (n *Node) mergeAcksLocked(peer *Node) {
	mark := n.ackMark[peer.id]
	if mark == len(peer.ackLog) {
		return
	}
	for _, id := range peer.ackLog[mark:] {
		n.learnAckLocked(id)
	}
	if n.ackMark == nil {
		n.ackMark = make(map[contact.NodeID]int)
	}
	n.ackMark[peer.id] = len(peer.ackLog)
}

// exchangeLocked hands over every eligible onion from sender to
// receiver as a marshaled Bundle-layer frame — the receiver re-parses
// and re-validates everything it is given. Both locks are held.
// Onions are offered in custody (FIFO) order: under a receiver buffer
// limit the transfer order decides which custody offers are refused,
// and both map iteration order and the crypto-random message IDs would
// make delivery outcomes nondeterministic for a fixed seed.
func (nw *Network) exchangeLocked(sender, receiver *Node, rep *MeetReport, col *obs.Collector) {
	for _, c := range sender.custodyFIFOLocked() {
		id := c.id
		if receiver.seen[id] {
			continue
		}
		if !sender.eligibleLocked(c, receiver.id, nw.cfg.Spray) {
			continue
		}
		frame, err := c.toBundle().Marshal()
		if err != nil {
			// A carried onion that cannot be framed is a programming
			// error; surface it loudly rather than silently dropping.
			panic(fmt.Sprintf("node: marshal custody of %s: %v", id, err))
		}
		incoming, dup := nw.handoffLocked(sender, receiver, frame, rep, col)
		if incoming == nil {
			// Transfer failed every attempt: the receiver never saw a
			// valid bundle; the sender keeps custody and re-offers at a
			// later contact (the inter-contact gap is the backoff).
			continue
		}
		// The hop counter rides outside the bundle frame (the frame
		// layout is pinned by the PR 2 fault schedules).
		incoming.hops = c.hops + 1
		if dup != nil {
			dup.hops = c.hops + 1
		}
		if err := receiver.acceptLocked(incoming); err != nil {
			rep.Rejected++
			if errors.Is(err, ErrBufferFull) {
				// Backpressure: the refusal charges the copy's re-offer
				// budget; an exhausted budget releases custody instead of
				// re-offering to full peers forever. With no budget
				// configured (the default) the sender just keeps custody,
				// exactly as before.
				rep.Refused++
				if sender.refusedLocked(c) {
					rep.Dropped++
				}
			}
			continue
		}
		if dup != nil {
			// Duplicate redelivery: the same frame arrives again. The
			// receiver's seen log must suppress it — a second accept
			// would double-deliver to the application layer.
			if err := receiver.acceptLocked(dup); err == nil {
				panic(fmt.Sprintf("node: duplicate redelivery of %s accepted twice", id))
			}
			receiver.stats.Duplicates++
			rep.Duplicates++
		}
		sender.stats.Forwarded++
		rep.Transfers++
		if incoming.lastHop {
			rep.Deliveries++
		}
		c.tickets--
		if c.tickets <= 0 {
			delete(sender.buffer, id)
		}
	}
}

// handoffLocked pushes one frame across the (possibly faulty) wire,
// retrying in-contact after truncated transfers up to the configured
// retry budget. It returns the parsed custody record on success (nil
// if every attempt failed) plus a second parsed record when the fault
// plan schedules a duplicate redelivery. Both locks are held.
func (nw *Network) handoffLocked(sender, receiver *Node, frame []byte, rep *MeetReport, col *obs.Collector) (incoming, dup *carried) {
	retries := nw.plan.Config().Retries
	for attempt := 0; ; attempt++ {
		h := nw.plan.Handoff(len(frame))
		wire := frame
		switch {
		case h.Truncate:
			wire = fault.Truncate(frame, h.Cut)
		case h.Corrupt:
			wire = fault.Flip(frame, h.Flip)
		}
		if col != nil {
			col.Add(obs.NodeWireBytes, int64(len(wire)))
			col.Observe(obs.HistHandoffFrameBytes, int64(len(frame)))
		}
		incoming, err := receiveFrame(wire)
		if err == nil {
			if h.Duplicate {
				// Parse the duplicate independently: the receiver
				// validates every frame it is handed, even repeats.
				if dup, err = receiveFrame(wire); err != nil {
					panic(fmt.Sprintf("node: duplicate of valid frame failed to parse: %v", err))
				}
			}
			return incoming, dup
		}
		receiver.stats.Rejected++
		rep.Rejected++
		if errors.Is(err, bundle.ErrTruncated) {
			// Torn transfer: the peer is still in contact, so the
			// sender retransmits immediately (short backoff) until the
			// in-contact budget is spent.
			receiver.stats.Truncated++
			rep.Truncated++
			if attempt < retries {
				sender.stats.Retried++
				rep.Retried++
				continue
			}
			return nil, nil
		}
		// Corruption (CRC/tamper class): drop gracefully, no
		// retransmission — a flipped frame signals a bad link, not an
		// aborted transfer.
		receiver.stats.Corrupted++
		rep.Corrupted++
		return nil, nil
	}
}

// TotalStats aggregates all node counters.
func (nw *Network) TotalStats() Stats {
	var total Stats
	for _, n := range nw.nodes {
		s := n.Stats()
		total.Sent += s.Sent
		total.Forwarded += s.Forwarded
		total.Carried += s.Carried
		total.Delivered += s.Delivered
		total.Rejected += s.Rejected
		total.Refused += s.Refused
		total.Expired += s.Expired
		total.Purged += s.Purged
		total.BackpressureDropped += s.BackpressureDropped
		total.Truncated += s.Truncated
		total.Corrupted += s.Corrupted
		total.Retried += s.Retried
		total.Duplicates += s.Duplicates
		total.Crashes += s.Crashes
		total.CrashDropped += s.CrashDropped
	}
	return total
}

// contactDriver adapts the network to the sim.Protocol interface so
// synthetic engines and trace replay can drive real nodes.
type contactDriver struct {
	nw   *Network
	done func() bool
}

func (d contactDriver) OnContact(t float64, a, b contact.NodeID) { d.nw.Meet(a, b, t) }

func (d contactDriver) Done() bool {
	if d.done == nil {
		return false
	}
	return d.done()
}

// DriveSynthetic runs the network over a synthetic contact process
// until the horizon or until done() reports true. It returns the
// number of contacts executed.
func (nw *Network) DriveSynthetic(g *contact.Graph, horizon float64, s *rng.Stream, done func() bool) int {
	return sim.RunSynthetic(g, horizon, s, contactDriver{nw: nw, done: done})
}

// DriveTrace replays a recorded trace window over the network. It
// returns the number of contacts executed.
func (nw *Network) DriveTrace(tr *trace.Trace, from, horizon float64, done func() bool) int {
	return sim.Replay(tr, from, horizon, contactDriver{nw: nw, done: done})
}
