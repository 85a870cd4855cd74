package node

import (
	"fmt"
	"testing"

	"repro/internal/contact"
	"repro/internal/rng"
)

// driveTransport executes one contact through the exported transport
// surface — the exact call sequence a cluster daemon performs over
// TCP: expire both sides, then each direction offers, receives, and
// settles the verdict.
func driveTransport(nw *Network, x, y contact.NodeID, now float64) {
	a, b := nw.Node(x), nw.Node(y)
	a.Expire(now)
	b.Expire(now)
	for _, pair := range [][2]*Node{{a, b}, {b, a}} {
		sender, receiver := pair[0], pair[1]
		var sent, took MeetReport
		for _, off := range sender.OffersTo(receiver.ID(), nw.cfg.Spray) {
			v, _ := receiver.Receive(off.Frame, off.Hops, &took)
			sender.Settle(off.MsgID, v, &sent)
		}
	}
}

// TestTransportMatchesMeet drives the identical workload and contact
// sequence through Network.Meet and through the transport methods; the
// two runtimes must agree on every node's delivered set, hop counts,
// and the conserved counters. This pins the refactor that extracted
// the custody protocol out of Meet. The pressure case makes full
// buffers refuse offers, spends re-offer budgets and expires copies,
// so refusals are settled on both paths.
func TestTransportMatchesMeet(t *testing.T) {
	const n, seed = 6, 99
	cases := []struct {
		name                string
		msgs, copies        int
		buffer, reoffer     int
		expiry              float64
		wantRefusalsDropped bool
	}{
		{name: "spray", msgs: 5, copies: 2},
		{name: "pressure", msgs: 12, copies: 3, buffer: 2, reoffer: 2, expiry: 10, wantRefusalsDropped: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Network {
				nw, err := NewNetwork(Config{
					Nodes: n, GroupSize: 2, Seed: seed, Spray: true,
					BufferLimit: tc.buffer, ReofferLimit: tc.reoffer,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < tc.msgs; i++ {
					src := contact.NodeID(i % n)
					dst := contact.NodeID((i + 3) % n)
					spec := SendSpec{
						Dst:     dst,
						Payload: []byte(fmt.Sprintf("parity-%d", i)),
						Relays:  1,
						Copies:  tc.copies,
						ID:      fmt.Sprintf("%032x", i+1),
					}
					if tc.expiry > 0 && i%2 == 1 {
						spec.Expiry = tc.expiry
					}
					if _, err := nw.Node(src).Send(spec, rng.New(seed).SplitN("path", i)); err != nil {
						t.Fatal(err)
					}
				}
				return nw
			}
			meetNW, transportNW := build(), build()

			// A deterministic pseudo-random contact sequence over all pairs.
			cs := rng.New(5).Split("contacts")
			for step := 0; step < 60; step++ {
				x := contact.NodeID(cs.IntN(n))
				y := contact.NodeID(cs.IntN(n - 1))
				if y >= x {
					y++
				}
				now := float64(step)
				meetNW.Meet(x, y, now)
				driveTransport(transportNW, x, y, now)
			}

			for v := 0; v < n; v++ {
				id := contact.NodeID(v)
				ms, ts := meetNW.Node(id).Stats(), transportNW.Node(id).Stats()
				if ms.Sent != ts.Sent || ms.Forwarded != ts.Forwarded ||
					ms.Carried != ts.Carried || ms.Delivered != ts.Delivered ||
					ms.Refused != ts.Refused || ms.Expired != ts.Expired ||
					ms.BackpressureDropped != ts.BackpressureDropped {
					t.Fatalf("node %d stats diverged:\nmeet:      %+v\ntransport: %+v", v, ms, ts)
				}
				mr, tr := meetNW.Node(id).DeliveryRecords(), transportNW.Node(id).DeliveryRecords()
				if len(mr) != len(tr) {
					t.Fatalf("node %d delivered %d vs %d messages", v, len(mr), len(tr))
				}
				for i := range mr {
					if mr[i] != tr[i] {
						t.Fatalf("node %d delivery %d diverged: %+v vs %+v", v, i, mr[i], tr[i])
					}
				}
				if meetNW.Node(id).BufferLen() != transportNW.Node(id).BufferLen() {
					t.Fatalf("node %d buffer %d vs %d", v, meetNW.Node(id).BufferLen(), transportNW.Node(id).BufferLen())
				}
			}
			total := meetNW.TotalStats()
			t.Logf("meet totals: %+v", total)
			if tc.wantRefusalsDropped && (total.Refused == 0 || total.BackpressureDropped == 0 || total.Expired == 0) {
				t.Fatalf("pressure case never refused, dropped and expired a copy: %+v", total)
			}
		})
	}
}
