package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
)

func TestSimEpochSLOVerdicts(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-mode", "sim", "-nodes", "20", "-group", "4",
		"-rate", "1", "-horizon", "120", "-drain", "600",
		"-slo-ratio", "0.5", "-slo-p99", "600",
	}, &buf, nil)
	if err != nil {
		t.Fatalf("passing run failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"SLO: PASS", "p99", "offered"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	err = run([]string{
		"-mode", "sim", "-nodes", "20", "-group", "4",
		"-rate", "1", "-horizon", "120", "-drain", "600",
		"-slo-ratio", "1.1", // unsatisfiable: ratio cannot exceed 1
	}, &buf, nil)
	if err == nil || !strings.Contains(err.Error(), "SLO breached") {
		t.Fatalf("breaching run returned %v, want an SLO-breach error", err)
	}
	if !strings.Contains(buf.String(), "SLO: BREACH") {
		t.Errorf("output missing breach verdict:\n%s", buf.String())
	}
}

// TestManifestRecordsSeed: the manifest names the base seed the run
// used, so a reported number traces back to it.
func TestManifestRecordsSeed(t *testing.T) {
	manifestPath := filepath.Join(t.TempDir(), "manifest.json")
	err := run([]string{
		"-mode", "sim", "-nodes", "20", "-group", "4",
		"-rate", "1", "-horizon", "120", "-drain", "600",
		"-seed", "7", "-manifest", manifestPath,
	}, io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ValidateManifestBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seed != 7 {
		t.Fatalf("manifest seed = %d, want 7", m.Seed)
	}
}

func TestFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-mode", "warp"}, &buf, nil); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-mode", "cluster", "-crash", "0.1"}, &buf, nil); err == nil {
		t.Error("cluster mode accepted -crash")
	}
	if err := run([]string{"-bench", filepath.Join(t.TempDir(), "b.json"), "-bench-rates", "zero"}, &buf, nil); err == nil {
		t.Error("malformed -bench-rates accepted")
	}
	if err := run([]string{"-mode", "sim", "-chaos"}, &buf, nil); err == nil {
		t.Error("sim mode accepted -chaos")
	}
	if err := run([]string{"-mode", "cluster", "-chaos-plan", filepath.Join(t.TempDir(), "p.json")}, &buf, nil); err == nil {
		t.Error("-chaos-plan accepted without -chaos")
	}
}

// TestClusterChaosSoak: one cluster epoch under -chaos must survive the
// full turbulence schedule — injected connection faults, partitions,
// and a mid-epoch directory blackout — pass the always-on invariant
// checker, dump a chaos plan that is a pure function of -chaos-seed,
// and account the whole ordeal in the manifest's chaos/retry counter
// families.
func TestClusterChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a TCP cluster")
	}
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "manifest.json")
	planPath := filepath.Join(dir, "plan.json")
	var buf bytes.Buffer
	err := run([]string{
		"-mode", "cluster", "-nodes", "6", "-group", "2",
		"-relays", "1", "-copies", "2",
		"-rate", "1", "-horizon", "30", "-drain", "60",
		"-ict-min", "1", "-ict-max", "5",
		"-timeout", "10s", "-join-wait", "500ms",
		"-chaos", "-chaos-seed", "42", "-chaos-plan", planPath,
		"-manifest", manifestPath,
	}, &buf, nil)
	if err != nil {
		t.Fatalf("chaos soak failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "chaos armed (seed 42") {
		t.Errorf("chaos banner missing:\n%s", buf.String())
	}

	// Determinism: the dumped plan is exactly NewPlan(seed, nodes) —
	// worker count, timing, and the epoch's outcome never leak into it.
	gotPlan, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	wantPlan := append(chaos.NewPlan(chaos.Config{Seed: 42, Nodes: 6}).JSON(), '\n')
	if !bytes.Equal(gotPlan, wantPlan) {
		t.Errorf("dumped plan is not the deterministic schedule for seed 42:\n got %s\nwant %s", gotPlan, wantPlan)
	}

	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ValidateManifestBytes(raw)
	if err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	// The same plan rides in the manifest's config block.
	var withConfig struct {
		Config struct {
			Chaos json.RawMessage `json:"chaos"`
		} `json:"config"`
	}
	if err := json.Unmarshal(raw, &withConfig); err != nil {
		t.Fatal(err)
	}
	var embedded, direct chaos.Plan
	if err := json.Unmarshal(withConfig.Config.Chaos, &embedded); err != nil {
		t.Fatalf("manifest config block has no chaos plan: %v", err)
	}
	if err := json.Unmarshal(bytes.TrimSuffix(gotPlan, []byte("\n")), &direct); err != nil {
		t.Fatal(err)
	}
	if embedded.Seed != 42 || len(embedded.Slots) != len(direct.Slots) || len(embedded.Blackouts) != len(direct.Blackouts) {
		t.Errorf("manifest chaos plan diverges from the -chaos-plan dump: %+v", embedded)
	}

	// The turbulence and self-healing families must all show activity:
	// slot 0 is non-clean so the very first connection injects, the
	// blackout drill crashes the directory at least once, and the
	// proven-to-fail revalidation against the dark directory costs
	// retries and trips a breaker.
	for _, name := range []string{"chaos.injected", "chaos.blackouts", "retry.attempts", "breaker.opens"} {
		v, ok := m.Counter(name)
		if !ok {
			t.Errorf("manifest missing counter %q", name)
			continue
		}
		if v == 0 {
			t.Errorf("%s = 0 after a chaos soak, want nonzero", name)
		}
	}
	// Chaos may delay deliveries, never lose the run: load flowed.
	if v, _ := m.Counter("load.injected"); v == 0 {
		t.Error("chaos soak injected nothing")
	}
	if v, _ := m.Counter("load.delivered"); v == 0 {
		t.Error("chaos soak delivered nothing")
	}
}

// TestClusterMetricsMatchManifest is the end-to-end gate for service
// mode: dtnload drives a live 3-node loopback cluster while serving
// -metrics, the final scrape must be well-formed exposition with
// nonzero contact and custody activity, every scraped total must equal
// the run manifest's, and the metrics server must not leak goroutines
// on shutdown.
func TestClusterMetricsMatchManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a TCP cluster")
	}
	baseline := runtime.NumGoroutine()

	manifestPath := filepath.Join(t.TempDir(), "manifest.json")
	var scrape []byte
	var scrapeURL string
	testBeforeExit = func(url string) {
		scrapeURL = url
		resp, err := http.Get(url)
		if err != nil {
			t.Errorf("scrape: %v", err)
			return
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("Content-Type = %q, want text format 0.0.4", ct)
		}
		scrape, err = io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("read scrape: %v", err)
		}
	}
	defer func() { testBeforeExit = nil }()

	var buf bytes.Buffer
	err := run([]string{
		"-mode", "cluster", "-nodes", "3", "-group", "1",
		"-relays", "1", "-copies", "2",
		"-rate", "1", "-horizon", "60", "-drain", "240", "-timeout", "10s",
		"-metrics", "127.0.0.1:0",
		"-manifest", manifestPath,
	}, &buf, nil)
	if err != nil {
		t.Fatalf("cluster run failed: %v\n%s", err, buf.String())
	}
	if scrapeURL == "" || len(scrape) == 0 {
		t.Fatal("metrics endpoint was never scraped")
	}

	exp, err := obs.ParseExposition(scrape)
	if err != nil {
		t.Fatalf("final scrape is not valid exposition: %v", err)
	}

	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ValidateManifestBytes(raw)
	if err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}

	// The live cluster must have produced real activity, and the
	// scrape and the manifest must agree on every checked total.
	checks := []struct {
		manifest string
		series   string
		nonzero  bool
	}{
		{"cluster.contacts", "dtn_cluster_contacts_total", true},
		{"cluster.dials", "dtn_cluster_dials_total", true},
		{"node.contacts", "dtn_node_contacts_total", true},
		{"node.handoffs", "dtn_node_handoffs_total", true},
		{"node.custody_high_water", "dtn_node_custody_high_water", true},
		{"load.injected", "dtn_load_injected_total", true},
		{"load.delivered", "dtn_load_delivered_total", true},
		{"load.slo_breaches", "dtn_load_slo_breaches_total", false},
	}
	for _, c := range checks {
		want, ok := m.Counter(c.manifest)
		if !ok {
			t.Errorf("manifest missing counter %q", c.manifest)
			continue
		}
		got, ok := exp.Value(c.series)
		if !ok {
			t.Errorf("scrape missing series %q", c.series)
			continue
		}
		if got != float64(want) {
			t.Errorf("%s: scrape %v != manifest %d", c.series, got, want)
		}
		if c.nonzero && want == 0 {
			t.Errorf("%s: expected nonzero activity", c.manifest)
		}
	}

	// The delivery-latency histogram must be live and coherent with
	// the delivered counter.
	delivered, _ := m.Counter("load.delivered")
	if count, ok := exp.Value(`dtn_load_delivery_latency_ms_count`); !ok || count != float64(delivered) {
		t.Errorf("latency histogram count = %v (ok=%v), want %d", count, ok, delivered)
	}

	// The server is down: the scrape URL must refuse connections and
	// the serving goroutines must drain back to the baseline.
	if _, err := http.Get(scrapeURL); err == nil {
		t.Error("metrics endpoint still serving after run returned")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutine leak after shutdown: %d > baseline %d", n, baseline)
	}
}

func TestBenchMatrixAndGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_load.json")
	var buf bytes.Buffer
	err := run([]string{
		"-mode", "sim", "-nodes", "20", "-group", "4",
		"-horizon", "120", "-drain", "480",
		"-bench", path, "-bench-rates", "0.5,1", "-gate", "0.2",
	}, &buf, nil)
	if err != nil {
		t.Fatalf("bench failed: %v\n%s", err, buf.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bench benchFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("bench output not JSON: %v", err)
	}
	if len(bench.Results) != 3 {
		t.Fatalf("got %d results, want 2 fault-free + 1 churn", len(bench.Results))
	}
	churn := bench.Results[len(bench.Results)-1]
	if !churn.Churn || churn.Rate != 1 {
		t.Fatalf("last row = %+v, want the churn re-run of the highest rate", churn)
	}
	for i, r := range bench.Results {
		if r.Injected == 0 || r.MsgsPerSec <= 0 || r.WallNanos <= 0 {
			t.Errorf("row %d has empty measurements: %+v", i, r)
		}
		if r.Delivered > 0 && r.P99Min < r.P50Min {
			t.Errorf("row %d: p99 %.2f < p50 %.2f", i, r.P99Min, r.P50Min)
		}
		if r.Delivered == 0 && r.P99Min != -1 {
			t.Errorf("row %d: undefined quantile not flagged as -1: %+v", i, r)
		}
	}
	if !strings.Contains(buf.String(), "gate ok") {
		t.Errorf("gate verdict missing:\n%s", buf.String())
	}
}
