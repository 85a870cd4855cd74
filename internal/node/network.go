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
	if cfg.BufferLimit < 0 {
		return nil, fmt.Errorf("node: negative buffer limit %d", cfg.BufferLimit)
	}
	if cfg.ReofferLimit < 0 {
		return nil, fmt.Errorf("node: negative re-offer limit %d", cfg.ReofferLimit)
	}
	if err := cfg.Faults.Validate(); err != nil {
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
	nw := &Network{cfg: cfg, dir: dir, plan: fault.NewPlan(cfg.Faults, root.Split("faults"))}
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
		// Meet offers and settles both directions, so its report is
		// both the hand-offs it settled and the whole contact.
		RecordContact(col, rep, &rep, max(len(a.buffer), len(b.buffer)))
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

// exchangeLocked offers every eligible onion from sender to receiver
// in custody (FIFO) order and settles each verdict. Both locks are
// held. A copy the receiver has already seen is skipped before it is
// framed: in one address space the sender can read the receiver's
// duplicate log, which a socket sender cannot.
func (nw *Network) exchangeLocked(sender, receiver *Node, rep *MeetReport, col *obs.Collector) {
	for _, c := range sender.custodyFIFOLocked() {
		if receiver.seen[c.id] {
			continue
		}
		off, ok := sender.offerLocked(c, receiver.id, nw.cfg.Spray)
		if !ok {
			continue
		}
		sender.settleLocked(c, nw.handoffLocked(sender, receiver, off, rep, col), rep)
	}
}

// handoffLocked pushes one offer across the in-memory wire, which may
// tear, corrupt or duplicate it as the fault plan says, and returns
// the receiver's verdict. A torn frame is retransmitted in-contact up
// to the configured retry budget; each retried attempt counts as a
// rejection here, and the final verdict is counted when it is settled.
// Both locks are held.
func (nw *Network) handoffLocked(sender, receiver *Node, off Offer, rep *MeetReport, col *obs.Collector) Verdict {
	retries := nw.plan.Config().Retries
	for attempt := 0; ; attempt++ {
		h := nw.plan.Handoff(len(off.Frame))
		wire := off.Frame
		switch {
		case h.Truncate:
			wire = fault.Truncate(off.Frame, h.Cut)
		case h.Corrupt:
			wire = fault.Flip(off.Frame, h.Flip)
		}
		if col != nil {
			col.Add(obs.NodeWireBytes, int64(len(wire)))
			col.Observe(obs.HistHandoffFrameBytes, int64(len(off.Frame)))
		}
		v, err := receiver.takeLocked(wire, off.Hops)
		switch {
		case err == nil:
			if h.Duplicate {
				// Duplicate redelivery: the same frame arrives again. The
				// receiver's seen log must suppress it — a second accept
				// would double-deliver to the application layer.
				if dup, _ := receiver.takeLocked(wire, off.Hops); dup.Accepted {
					panic(fmt.Sprintf("node: duplicate redelivery of %s accepted twice", off.MsgID))
				}
				receiver.stats.Duplicates++
				rep.Duplicates++
			}
			return v
		case errors.Is(err, errTransfer):
			// A valid frame the receiver turned down (seen, full, or
			// unpeelable): not a wire fault.
			return v
		case errors.Is(err, bundle.ErrTruncated):
			// Torn transfer: the peer is still in contact, so the
			// sender retransmits immediately (short backoff) until the
			// in-contact budget is spent.
			rep.Truncated++
			if attempt < retries {
				rep.Rejected++
				sender.stats.Retried++
				rep.Retried++
				continue
			}
		default:
			// Corruption (CRC/tamper class): drop gracefully, no
			// retransmission — a flipped frame signals a bad link, not an
			// aborted transfer.
			rep.Corrupted++
		}
		// The sender keeps custody and re-offers at a later contact (the
		// inter-contact gap is the backoff).
		return v
	}
}

// TotalStats aggregates all node counters.
func (nw *Network) TotalStats() Stats {
	var total Stats
	for _, n := range nw.nodes {
		total.Add(n.Stats())
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
