package node

// Transport surface: the one custody exchange both runtime tiers run.
// Network.Meet drives it over an in-memory pipe (with fault
// injection); internal/cluster drives it over real TCP sockets. A
// contact is a half-duplex offer/verdict exchange per direction:
//
//	sender:   OffersTo(peer)                  -> eligible frames, FIFO order
//	receiver: Receive(frame, senderHops, rep) -> Verdict (accept / classified reject)
//	sender:   Settle(msgID, verdict, rep)     -> spend a ticket or charge a refusal
//
// Both tiers pick offers with offerLocked, ingest frames with
// takeLocked and settle verdicts with settleLocked, so the forwarding
// rule — offer each eligible onion, spend one of its L tickets on
// acceptance — is written once.
//
// Custody safety falls out of the verdict discipline: a sender that
// never hears an accept keeps the onion and re-offers at a later
// contact (the inter-contact gap is the backoff), so a connection torn
// mid-contact can delay but never lose or duplicate a delivery — the
// receiver's seen log rejects the re-offer if the verdict, not the
// transfer, was what got lost.
//
// Counting rule: a hand-off is counted once, by the node that offered
// it, when it settles the verdict; a contact is counted once, by the
// side that opened it. RecordContact applies the rule to the node.*
// counters in both tiers.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bundle"
	"repro/internal/contact"
	"repro/internal/obs"
)

// Offer is one custody record proposed for hand-off to a peer: the
// marshaled bundle frame plus the hop count that rides alongside it.
type Offer struct {
	MsgID string
	Hops  int
	Frame []byte
}

// Verdict is a receiver's answer to one custody offer.
type Verdict struct {
	Accepted   bool // the receiver took custody or the delivery
	Delivered  bool // an accepted offer that was a final delivery
	BufferFull bool // refused because the receiver's buffer is full
}

// MeetReport summarizes one contact, or one side's part of a live
// contact.
type MeetReport struct {
	Offered    int // custody offers settled, either verdict
	Transfers  int // onions that changed custody
	Deliveries int // payloads that reached their destination
	Rejected   int // hand-offs rejected (tampering, truncation, seen, full)
	Refused    int // custody offers refused by a full buffer (subset of Rejected)
	Dropped    int // copies dropped after exhausting their re-offer budget
	Truncated  int // hand-offs torn mid-transfer
	Corrupted  int // hand-offs damaged by byte flips
	Retried    int // in-contact retransmissions after a tear
	Duplicates int // redeliveries suppressed by the receiver
}

// Add sums another report into rep.
func (rep *MeetReport) Add(o MeetReport) {
	rep.Offered += o.Offered
	rep.Transfers += o.Transfers
	rep.Deliveries += o.Deliveries
	rep.Rejected += o.Rejected
	rep.Refused += o.Refused
	rep.Dropped += o.Dropped
	rep.Truncated += o.Truncated
	rep.Corrupted += o.Corrupted
	rep.Retried += o.Retried
	rep.Duplicates += o.Duplicates
}

// tally counts one verdict into the report.
func (rep *MeetReport) tally(v Verdict) {
	rep.Offered++
	switch {
	case v.Accepted:
		rep.Transfers++
		if v.Delivered {
			rep.Deliveries++
		}
	case v.BufferFull:
		rep.Rejected++
		rep.Refused++
	default:
		rep.Rejected++
	}
}

// RecordContact emits the node.* counters for one contact. A hand-off
// is counted by the node that offered it, so sent must hold only the
// offers the caller settled: both directions for Network.Meet, its own
// direction for each side of a live contact. The side that opened the
// contact also passes its report of the whole contact as whole, which
// counts the contact and its transfers; the other side passes nil.
// occupancy is the caller's custody-buffer size.
func RecordContact(col *obs.Collector, sent MeetReport, whole *MeetReport, occupancy int) {
	if whole != nil {
		col.Add(obs.NodeContacts, 1)
		col.Observe(obs.HistContactTransfers, int64(whole.Transfers))
	}
	col.Add(obs.NodeHandoffs, int64(sent.Transfers))
	col.Add(obs.NodeDeliveries, int64(sent.Deliveries))
	col.Add(obs.NodeRejected, int64(sent.Rejected))
	col.Add(obs.NodeRefusals, int64(sent.Refused))
	col.Add(obs.NodeBackpressureDrops, int64(sent.Dropped))
	col.Add(obs.NodeTruncated, int64(sent.Truncated))
	col.Add(obs.NodeRetransmissions, int64(sent.Retried))
	col.Add(obs.NodeTamperDrops, int64(sent.Corrupted))
	col.Add(obs.NodeDedupHits, int64(sent.Duplicates))
	col.RecordMax(obs.NodeCustodyHighWater, int64(occupancy))
}

// custodyFIFOLocked returns the onions in custody in insertion (FIFO)
// order. Map iteration order and crypto-random message IDs would both
// make transfer order — and with it buffer-refusal outcomes —
// nondeterministic for a fixed seed. It compacts n.fifo in place,
// dropping copies released since the last call, and allocates nothing.
// The returned slice aliases n.fifo: it is valid only while the caller
// holds n.mu, and only until the next holdLocked on this node. Deleting
// from n.buffer while ranging over it is safe; taking custody is not.
// Every caller that ranges over it (expireLocked, OffersTo, and
// exchangeLocked with this node as sender) only deletes here and
// inserts only into the peer.
func (n *Node) custodyFIFOLocked() []*carried {
	live := n.fifo[:0]
	for _, c := range n.fifo {
		if n.buffer[c.id] == c {
			live = append(live, c)
		}
	}
	clear(n.fifo[len(live):]) // release the dropped copies to the GC
	n.fifo = live
	return live
}

// offerLocked frames c as an offer to peer if peer is eligible to
// receive it: the final destination of a last-hop onion, a member of
// the addressed group, or (in spray mode) any node while spare tickets
// remain. The caller holds n.mu.
func (n *Node) offerLocked(c *carried, peer contact.NodeID, spray bool) (Offer, bool) {
	eligible := c.deliverTo == peer
	if !c.lastHop {
		eligible = n.dir.Contains(c.group, peer) || spray && c.tickets >= 2
	}
	if !eligible {
		return Offer{}, false
	}
	frame, err := c.toBundle().Marshal()
	if err != nil {
		// A carried onion that cannot be framed is a programming
		// error; surface it loudly rather than silently dropping.
		panic(fmt.Sprintf("node: marshal custody of %s: %v", c.id, err))
	}
	return Offer{MsgID: c.id, Hops: c.hops, Frame: frame}, true
}

// OffersTo returns an offer for every onion in custody that peer is
// eligible to receive, in custody FIFO order. The offers are
// snapshots: custody is only released by Settle, so a connection that
// dies between offer and verdict leaves the sender holding every
// unacknowledged onion.
func (n *Node) OffersTo(peer contact.NodeID, spray bool) []Offer {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []Offer
	for _, c := range n.custodyFIFOLocked() {
		if off, ok := n.offerLocked(c, peer, spray); ok {
			out = append(out, off)
		}
	}
	return out
}

// takeLocked parses, validates and ingests one incoming wire frame
// from a peer whose copy had traveled senderHops custody transfers,
// and returns the verdict. Damaged frames fail before any state
// changes and are classified: bundle.ErrTruncated (torn — the peer may
// retransmit in-contact) or any other bundle error (corrupted — drop
// gracefully). Every other rejection wraps errTransfer. The caller
// holds n.mu.
func (n *Node) takeLocked(frame []byte, senderHops int) (Verdict, error) {
	c, err := receiveFrame(frame)
	if err != nil {
		n.stats.Rejected++
		if errors.Is(err, bundle.ErrTruncated) {
			n.stats.Truncated++
		} else {
			n.stats.Corrupted++
		}
		return Verdict{}, err
	}
	// The hop counter rides outside the bundle frame (the frame layout
	// is pinned by the fault schedules).
	c.hops = senderHops + 1
	if err := n.acceptLocked(c); err != nil {
		return Verdict{BufferFull: errors.Is(err, ErrBufferFull)}, err
	}
	return Verdict{Accepted: true, Delivered: c.lastHop}, nil
}

// Receive is takeLocked for a transport: it ingests one frame pushed
// over the transport's wire, counts the frame's bytes, and tallies the
// verdict into rep, the receiving side's report of the contact.
func (n *Node) Receive(frame []byte, senderHops int, rep *MeetReport) (Verdict, error) {
	if col := obs.Active(); col != nil {
		col.Add(obs.NodeWireBytes, int64(len(frame)))
		col.Observe(obs.HistHandoffFrameBytes, int64(len(frame)))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	v, err := n.takeLocked(frame, senderHops)
	rep.tally(v)
	return v, err
}

// settleLocked applies the receiver's verdict on an offer of c and
// tallies it into rep. An accepted offer spends one ticket, and
// custody is released when none remain. A refusal by a full buffer
// charges the copy's re-offer budget; an exhausted budget releases
// custody instead of re-offering to full peers forever (with no budget
// configured the sender just keeps custody). Any other rejection
// leaves custody as it was. c is nil when the copy is no longer held
// (a crash dropped the buffer mid-contact); the verdict is then only
// tallied. The caller holds n.mu.
func (n *Node) settleLocked(c *carried, v Verdict, rep *MeetReport) {
	rep.tally(v)
	switch {
	case c == nil:
	case v.Accepted:
		n.stats.Forwarded++
		c.tickets--
		if c.tickets <= 0 {
			delete(n.buffer, c.id)
		}
	case v.BufferFull:
		c.refusals++
		if n.reofferLimit > 0 && c.refusals >= n.reofferLimit {
			delete(n.buffer, c.id)
			n.stats.BackpressureDropped++
			rep.Dropped++
		}
	}
}

// Settle is settleLocked for a transport: it applies the verdict the
// peer returned for this node's offer of msgID.
func (n *Node) Settle(msgID string, v Verdict, rep *MeetReport) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.settleLocked(n.buffer[msgID], v, rep)
}

// Expire drops onions past their deadline, as Network.Meet does at the
// start of every contact.
func (n *Node) Expire(now float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.expireLocked(now)
}

// Crash models a crash/restart of this node outside a Network-driven
// contact (a killed daemon): the volatile custody buffer is lost
// unless preserved, while the delivered log, the duplicate-suppression
// log, and known acknowledgements survive — a restarted node must
// still deliver each message to its application layer exactly once.
func (n *Node) Crash(preserveCustody bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashLocked(preserveCustody)
}

// DeliveryRecord summarizes one message delivered to this node.
type DeliveryRecord struct {
	MsgID string
	Hops  int // custody transfers from source to destination
}

// DeliveredHops returns the number of custody transfers a delivered
// message experienced, if it was delivered here.
func (n *Node) DeliveredHops(msgID string) (int, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.deliveredHops[msgID]
	return h, ok
}

// CustodyRecord describes one onion currently held in the custody
// buffer — the audit surface the cluster invariant checker walks to
// prove conservation (no bundle vanishes without a recorded cause) and
// the spray ticket bound (no copy set ever exceeds its budget).
type CustodyRecord struct {
	MsgID   string
	Tickets int
	Hops    int
}

// CustodySnapshot lists the buffer contents sorted by message ID.
func (n *Node) CustodySnapshot() []CustodyRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]CustodyRecord, 0, len(n.buffer))
	for id, c := range n.buffer {
		out = append(out, CustodyRecord{MsgID: id, Tickets: c.tickets, Hops: c.hops})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MsgID < out[j].MsgID })
	return out
}

// DeliveryRecords returns every delivery at this node, sorted by
// message ID for deterministic comparison.
func (n *Node) DeliveryRecords() []DeliveryRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]DeliveryRecord, 0, len(n.deliveredHops))
	for id, h := range n.deliveredHops {
		out = append(out, DeliveryRecord{MsgID: id, Hops: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MsgID < out[j].MsgID })
	return out
}
