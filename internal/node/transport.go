package node

// Transport surface: the custody-exchange protocol factored out of
// Network.Meet so it can run over any frame transport. Network keeps
// the in-memory pipe (with PR 2 fault injection); internal/cluster
// drives the same methods over real TCP sockets. The protocol is a
// half-duplex offer/verdict exchange per direction:
//
//	sender:   OffersTo(peer)             -> eligible frames, FIFO order
//	receiver: Receive(frame, senderHops) -> accept / classified reject
//	sender:   HandoffAccepted(id)        -> on an accepted verdict only
//
// Custody safety falls out of the verdict discipline: a sender that
// never hears an accept keeps the onion and re-offers at a later
// contact (the inter-contact gap is the backoff), so a connection torn
// mid-contact can delay but never lose or duplicate a delivery — the
// receiver's seen log rejects the re-offer if the verdict, not the
// transfer, was what got lost.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bundle"
	"repro/internal/contact"
)

// Offer is one custody record proposed for hand-off to a peer: the
// marshaled bundle frame plus the hop count that rides alongside it.
type Offer struct {
	MsgID string
	Hops  int
	Frame []byte
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

// eligibleLocked reports whether peer may take custody of c: the final
// destination of a last-hop onion, a member of the addressed group, or
// (in spray mode) any node while spare tickets remain. The caller
// holds n.mu.
func (n *Node) eligibleLocked(c *carried, peer contact.NodeID, spray bool) bool {
	switch {
	case c.lastHop:
		return c.deliverTo == peer
	case n.dir.Contains(c.group, peer):
		return true
	case spray && c.tickets >= 2:
		return true
	}
	return false
}

// OffersTo returns a marshaled frame for every onion in custody that
// peer is eligible to receive, in custody FIFO order. The offers are
// snapshots: custody is only released by HandoffAccepted, so a
// connection that dies between offer and verdict leaves the sender
// holding every unacknowledged onion.
func (n *Node) OffersTo(peer contact.NodeID, spray bool) []Offer {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []Offer
	for _, c := range n.custodyFIFOLocked() {
		if !n.eligibleLocked(c, peer, spray) {
			continue
		}
		frame, err := c.toBundle().Marshal()
		if err != nil {
			// A carried onion that cannot be framed is a programming
			// error; surface it loudly rather than silently dropping.
			panic(fmt.Sprintf("node: marshal custody of %s: %v", c.id, err))
		}
		out = append(out, Offer{MsgID: c.id, Hops: c.hops, Frame: frame})
	}
	return out
}

// Receive parses, validates, and ingests one incoming wire frame from
// a peer whose copy had traveled senderHops custody transfers. It
// reports whether the frame was a final delivery to this node. Damaged
// frames fail before any state changes and are classified like the
// in-memory pipe classifies them: bundle.ErrTruncated (torn — the peer
// may retransmit in-contact), bundle.ErrTampered (drop gracefully).
func (n *Node) Receive(frame []byte, senderHops int) (delivered bool, err error) {
	c, err := receiveFrame(frame)
	if err != nil {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.stats.Rejected++
		if errors.Is(err, bundle.ErrTruncated) {
			n.stats.Truncated++
		} else {
			n.stats.Corrupted++
		}
		return false, err
	}
	c.hops = senderHops + 1
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.acceptLocked(c); err != nil {
		return false, err
	}
	return c.lastHop && c.deliverTo == n.id, nil
}

// HandoffAccepted finalizes a successful hand-off: one ticket is
// spent, and custody is released when none remain. Calling it for an
// unknown message (e.g. after a crash dropped the buffer) is a no-op.
func (n *Node) HandoffAccepted(msgID string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.buffer[msgID]
	if !ok {
		return
	}
	n.stats.Forwarded++
	c.tickets--
	if c.tickets <= 0 {
		delete(n.buffer, msgID)
	}
}

// HandoffRefused charges one buffer-full refusal against a carried
// copy and reports whether the re-offer budget is now exhausted and
// custody was released (the backpressure drop policy — see
// SetReofferLimit). Calling it for an unknown message is a no-op.
func (n *Node) HandoffRefused(msgID string) (dropped bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.buffer[msgID]
	if !ok {
		return false
	}
	return n.refusedLocked(c)
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
