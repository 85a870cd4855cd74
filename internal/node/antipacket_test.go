package node

import (
	"fmt"
	"testing"

	"repro/internal/contact"
	"repro/internal/fault"
	"repro/internal/rng"
)

// fullMergeMeet is Meet with the ack exchange done the direct way: each
// party learns every ack the other holds. It is the reference the ack
// log and per-peer marks must reproduce exactly.
func fullMergeMeet(nw *Network, x, y contact.NodeID, now float64) {
	a, b := nw.Node(x), nw.Node(y)
	first, second := a, b
	if second.id < first.id {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()
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
	for id := range a.acks {
		b.learnAckLocked(id)
	}
	for id := range b.acks {
		a.learnAckLocked(id)
	}
	var rep MeetReport
	nw.exchangeLocked(a, b, &rep, nil)
	nw.exchangeLocked(b, a, &rep, nil)
}

// checkAckLog asserts that n's ack log lists exactly its ack set, each
// ID once.
func checkAckLog(t *testing.T, n *Node) {
	t.Helper()
	if len(n.ackLog) != len(n.acks) {
		t.Fatalf("node %d: ack log holds %d IDs, ack set %d", n.id, len(n.ackLog), len(n.acks))
	}
	logged := make(map[string]bool, len(n.ackLog))
	for _, id := range n.ackLog {
		if logged[id] {
			t.Fatalf("node %d: ack %s logged twice", n.id, id)
		}
		if !n.acks[id] {
			t.Fatalf("node %d: logged ack %s missing from the ack set", n.id, id)
		}
		logged[id] = true
	}
}

// TestAckWatermarkMatchesFullMerge drives one long randomized
// anti-packet workload — spray, a buffer limit, a re-offer budget,
// deadlines and churn — through Meet and, in lockstep, through a
// full-map merge. After every contact both parties must know the same
// acks in both networks and have purged the same number of copies.
func TestAckWatermarkMatchesFullMerge(t *testing.T) {
	for _, preserve := range []bool{false, true} {
		t.Run(fmt.Sprintf("preserve=%v", preserve), func(t *testing.T) {
			const nodes, msgs, contacts = 16, 160, 6000
			cfg := Config{
				Nodes: nodes, GroupSize: 4, Seed: 17, Spray: true,
				BufferLimit: 4, ReofferLimit: 2, AntiPackets: true,
				Faults: fault.Config{Crash: 0.02, PreserveCustody: preserve},
			}
			delta, full := testNetwork(t, cfg), testNetwork(t, cfg)
			cs := rng.New(18).Split("contacts")
			sent := 0
			for step := 0; step < contacts; step++ {
				now := float64(step)
				if step%(contacts/msgs) == 0 && sent < msgs {
					src := contact.NodeID(cs.IntN(nodes))
					spec := SendSpec{
						Dst:     contact.NodeID(cs.PickOther(nodes, int(src))),
						Payload: []byte("ack"),
						Relays:  2,
						Copies:  3,
						ID:      fmt.Sprintf("%032x", sent+1),
					}
					if sent%4 == 0 {
						spec.Expiry = now + 400
					}
					for _, nw := range []*Network{delta, full} {
						if _, err := nw.Node(src).Send(spec, rng.New(19).SplitN("path", sent)); err != nil {
							t.Fatal(err)
						}
					}
					sent++
				}
				x := contact.NodeID(cs.IntN(nodes))
				y := contact.NodeID(cs.PickOther(nodes, int(x)))
				delta.Meet(x, y, now)
				fullMergeMeet(full, x, y, now)
				for _, id := range []contact.NodeID{x, y} {
					d, f := delta.Node(id), full.Node(id)
					checkAckLog(t, d)
					if len(d.acks) != len(f.acks) {
						t.Fatalf("step %d node %d: %d acks, full merge %d", step, id, len(d.acks), len(f.acks))
					}
					for ack := range f.acks {
						if !d.acks[ack] {
							t.Fatalf("step %d node %d: missing ack %s", step, id, ack)
						}
					}
					if d.stats.Purged != f.stats.Purged {
						t.Fatalf("step %d node %d: purged %d, full merge %d", step, id, d.stats.Purged, f.stats.Purged)
					}
				}
			}
			if got, want := delta.TotalStats(), full.TotalStats(); got != want {
				t.Fatalf("totals diverged:\ndelta: %+v\nfull:  %+v", got, want)
			}
			s := delta.TotalStats()
			if s.Purged == 0 || s.Crashes == 0 || s.Delivered == 0 || s.Expired == 0 {
				t.Fatalf("workload too weak to exercise the merge: %+v", s)
			}
		})
	}
}

// TestIdleMeetAllocatesNothing: a contact where acks are already in
// sync and nothing is eligible for hand-off allocates nothing.
func TestIdleMeetAllocatesNothing(t *testing.T) {
	nw := testNetwork(t, Config{Nodes: 20, GroupSize: 4, Seed: 5, AntiPackets: true})
	src := nw.Node(0)
	if _, err := src.Send(SendSpec{Dst: 19, Payload: []byte("idle"), Relays: 2, Copies: 1}, rng.New(6)); err != nil {
		t.Fatal(err)
	}
	src.mu.Lock()
	for i := 0; i < 50; i++ {
		src.learnAckLocked(fmt.Sprintf("%032x", i+1))
	}
	first := src.fifo[0].group
	src.mu.Unlock()
	peer := contact.NodeID(-1)
	for id := contact.NodeID(1); id < 19; id++ {
		if !nw.dir.Contains(first, id) {
			peer = id
			break
		}
	}
	if peer < 0 {
		t.Fatal("every node is in the first onion group")
	}
	nw.Meet(0, peer, 1) // the peer catches up on the acks
	if got := len(nw.Node(peer).acks); got != 50 {
		t.Fatalf("peer learned %d of 50 acks", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { nw.Meet(0, peer, 2) }); allocs != 0 {
		t.Fatalf("idle Meet allocates %v times, want 0", allocs)
	}
	if src.BufferLen() != 1 {
		t.Fatalf("custody moved during idle contacts: %d onions at the source", src.BufferLen())
	}
}

// BenchmarkMeetAntiPackets measures contacts in a network that already
// carries several hundred acks: the cost of the ack exchange, which
// BenchmarkMeet (no acks) cannot see.
func BenchmarkMeetAntiPackets(b *testing.B) {
	const nodes = 40
	nw, err := NewNetwork(Config{Nodes: nodes, GroupSize: 5, Seed: 1, Spray: true, BufferLimit: 8, AntiPackets: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		n := nw.Node(contact.NodeID(i % nodes))
		n.mu.Lock()
		n.learnAckLocked(fmt.Sprintf("%032x", i+1))
		n.mu.Unlock()
	}
	for i := 0; i < nodes; i++ {
		spec := SendSpec{Dst: contact.NodeID((i + 1) % nodes), Payload: make([]byte, 64), Relays: 3, Copies: 3}
		if _, err := nw.Node(contact.NodeID(i)).Send(spec, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	// One round of every pair spreads the acks, as a long run would.
	for x := 0; x < nodes; x++ {
		for y := x + 1; y < nodes; y++ {
			nw.Meet(contact.NodeID(x), contact.NodeID(y), 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := i % nodes
		y := (x + 1 + i/nodes%(nodes-1)) % nodes
		nw.Meet(contact.NodeID(x), contact.NodeID(y), float64(i))
	}
}
