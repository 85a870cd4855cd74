package cluster

// The differential tests: the in-process runtime and the live TCP
// cluster run the identical (workload, trace, seed) and must agree on
// the delivered message set — IDs, destinations, hop counts — and on
// the conserved stats, at every replay worker count.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/contact"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// parityCounters are the node.* counters both tiers must agree on. A
// hand-off is counted by the node that offered it and a contact by the
// side that opened it, so these sums are the same on a socket.
// node.rejected and node.wire_bytes are left out: a socket sender
// re-offers copies the receiver has already seen (see diff.go).
var parityCounters = []obs.Counter{
	obs.NodeContacts, obs.NodeHandoffs, obs.NodeDeliveries,
	obs.NodeRefusals, obs.NodeBackpressureDrops,
}

// installCollector installs a fresh observability collector until the
// test ends.
func installCollector(t *testing.T) *obs.Collector {
	prev := obs.Active()
	col := obs.NewCollector()
	obs.Install(col)
	t.Cleanup(func() { obs.Install(prev) })
	return col
}

// launchAndReplay runs the workload on a fresh cluster and returns its
// delivered set, conserved stats and counters. The counters are read
// after the cluster is closed: the passive side of a contact records
// its hand-offs after the initiator has returned.
func launchAndReplay(t *testing.T, cfg Config, msgs []Message, tr *trace.Trace, from, horizon float64, workers int) (DeliverySet, StatsSubset, *obs.Collector) {
	t.Helper()
	col := installCollector(t)
	c, err := Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Inject(msgs)
	var n int
	if err == nil {
		n, err = c.Replay(tr, from, horizon, workers)
	}
	got, stats := c.Deliveries(msgs), Subset(c.TotalStats())
	if cerr := c.Close(); cerr != nil {
		t.Errorf("close cluster: %v", cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("replay window held no contacts")
	}
	return got, stats, col
}

// diffAgainstReference runs the same (workload, trace, seed) through
// the in-process tier and through live clusters at several worker
// counts, requiring exact agreement everywhere: delivered set,
// conserved stats and the parity counters.
func diffAgainstReference(t *testing.T, cfg Config, msgs []Message, tr *trace.Trace, from, horizon float64) {
	t.Helper()
	refCol := installCollector(t)
	ref, err := RunReference(cfg, msgs, tr, from, horizon)
	if err != nil {
		t.Fatal(err)
	}
	want := NetworkDeliveries(ref, msgs)
	if len(want) == 0 {
		t.Fatal("reference run delivered nothing — the differential would be vacuous")
	}
	refStats := ref.TotalStats()
	wantStats := Subset(refStats)
	t.Logf("reference: %d/%d delivered, stats %+v, refused=%d dropped=%d",
		len(want), len(msgs), wantStats, refStats.Refused, refStats.BackpressureDropped)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, gotStats, col := launchAndReplay(t, cfg, msgs, tr, from, horizon, workers)
			if d := want.Diff(got); d != "" {
				t.Fatalf("live cluster diverged from the in-process run: %s", d)
			}
			if gotStats != wantStats {
				t.Fatalf("conserved stats diverged: cluster %+v, reference %+v", gotStats, wantStats)
			}
			for _, ctr := range parityCounters {
				if g, w := col.Get(ctr), refCol.Get(ctr); g != w {
					t.Errorf("counter %s diverged: cluster %d, reference %d", ctr, g, w)
				}
			}
			if col.Get(obs.NodeWireBytes) == 0 {
				t.Errorf("counter %s reads 0 in the cluster", obs.NodeWireBytes)
			}
			if h := col.Histograms()[obs.HistHandoffFrameBytes]; h.Sum == 0 {
				t.Errorf("histogram %s reads 0 in the cluster", h.Name)
			}
		})
	}
}

// TestDifferentialConferenceTrace replays the first conference morning
// of the Infocom-like trace, shrunk to its 5 busiest nodes, on both
// tiers.
func TestDifferentialConferenceTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP clusters")
	}
	full, err := trace.GenerateInfocom(rng.New(11).Split("trace"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := full.KeepBusiest(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nodes: 5, GroupSize: 2, Seed: 11, Spray: true, Timeout: 10 * time.Second}
	msgs := SyntheticWorkload(11, 5, 12, 1, 2)
	// The diurnal trace starts at hour 9; replay the first two hours of
	// conference mingling.
	diffAgainstReference(t, cfg, msgs, tr, 32400, 7200)
}

// TestDifferentialSyntheticContacts realizes the paper's synthetic
// pairwise-exponential contact process as a recorded trace and runs it
// on both tiers, closing the loop back to sim.RunSynthetic.
func TestDifferentialSyntheticContacts(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP clusters")
	}
	const n = 6
	g := contact.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.SetRate(contact.NodeID(i), contact.NodeID(j), 1.0/300)
		}
	}
	tr := RecordSynthetic(g, 4*3600, rng.New(7).Split("contacts"))
	if len(tr.Contacts) == 0 {
		t.Fatal("synthetic realization produced no contacts")
	}
	cfg := Config{Nodes: n, GroupSize: 2, Seed: 7, Spray: true, Timeout: 10 * time.Second}
	msgs := SyntheticWorkload(7, n, 10, 1, 2)
	diffAgainstReference(t, cfg, msgs, tr, 0, 4*3600)
}

// TestDifferentialWithBufferPressure pins the custody-FIFO ordering
// guarantee: under a tight buffer limit, which hand-offs are refused
// depends on transfer order, so agreement here means the live tier
// replays the in-process tier's order exactly. It runs at re-offer
// budgets 0 (unlimited) and 2.
func TestDifferentialWithBufferPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP clusters")
	}
	const n = 6
	g := contact.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.SetRate(contact.NodeID(i), contact.NodeID(j), 1.0/240)
		}
	}
	tr := RecordSynthetic(g, 3*3600, rng.New(13).Split("contacts"))
	cfg := Config{Nodes: n, GroupSize: 2, Seed: 13, Spray: true, BufferLimit: 3, Timeout: 10 * time.Second}
	msgs := SyntheticWorkload(13, n, 12, 1, 3)
	diffAgainstReference(t, cfg, msgs, tr, 0, 3*3600)
	// With a re-offer budget, refusals also drop copies, so the drop
	// policy must match across tiers too.
	t.Run("reoffer=2", func(t *testing.T) {
		cfg := cfg
		cfg.ReofferLimit = 2
		diffAgainstReference(t, cfg, msgs, tr, 0, 3*3600)
	})
}
