package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func tinyConfig(t *testing.T, name string, trace bool) config {
	return config{workload: name, seed: 3, seconds: 1, trace: trace, workDir: t.TempDir(), tiny: true}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks that the output check passes and that every metric
// of the run's set is printed with its unit, on the table and in the
// final JSON line.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := measure(tinyConfig(t, name, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if err := printResult(&out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			set := metricSet(trace)
			if len(last.Metrics) != len(set) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", name, trace, len(last.Metrics), len(set))
			}
			for _, d := range set {
				m, ok := last.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
				if !strings.Contains(out.String(), d.name) {
					t.Errorf("%s trace=%v: %s missing from the table", name, trace, d.name)
				}
			}
		}
	}
}

// TestWrongExpectationFails feeds every workload's check a deliberately
// wrong expectation: a digest no output has, and for the runtime
// invariants a misaddressed message, for the warm cache altered cold
// bytes.
func TestWrongExpectationFails(t *testing.T) {
	wrong := strings.Repeat("0", 64)
	// The failure each corrupted expectation must produce.
	corrupted := map[string]string{
		"runtime-antipackets": "delivered at node",
		"cluster-load":        "exactly-once",
		"figures-warm":        "not byte-identical",
	}
	for _, name := range workloadNames() {
		cases := map[string]func(*config){"digest": func(c *config) { c.wantDigest = wrong }}
		if _, ok := corrupted[name]; ok {
			cases["corrupt"] = func(c *config) { c.corrupt = true }
		}
		for kind, set := range cases {
			cfg := tinyConfig(t, name, false)
			set(&cfg)
			want := "want " + wrong
			if kind == "corrupt" {
				want = corrupted[name]
			}
			var out bytes.Buffer
			res, err := measure(cfg, &out)
			if !errors.Is(err, errCheck) || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s %s: err = %v, want an output check failure with %q", name, kind, err, want)
			}
			if res == nil || res.Correct {
				t.Fatalf("%s %s: result %+v, want correct=false", name, kind, res)
			}
		}
	}
}

// TestDigestTable checks the committed digests: every workload pins
// exactly the input seeds 0 to pinnedSeeds-1, each with a SHA-256, and
// every -seed argument folds onto one of them.
func TestDigestTable(t *testing.T) {
	var table map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &table); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		if len(table[name]) != pinnedSeeds {
			t.Errorf("%s: %d seeds pinned, want %d", name, len(table[name]), pinnedSeeds)
		}
		for s := uint64(0); s < pinnedSeeds; s++ {
			if _, ok := table[name][fmt.Sprint(s)]; !ok {
				t.Errorf("%s: seed %d has no digest", name, s)
			}
		}
		for s, d := range table[name] {
			if b, err := hex.DecodeString(d); err != nil || len(b) != 32 {
				t.Errorf("%s seed %s: digest %q is not a SHA-256", name, s, d)
			}
		}
	}
	for _, arg := range []uint64{0, 1, 199, 200, 4242, math.MaxUint64} {
		in := inputSeed(arg)
		if _, err := expectedDigest("paper-figures", in); err != nil {
			t.Errorf("seed %d (input seed %d): %v", arg, in, err)
		}
	}
	if inputSeed(7) == inputSeed(8) {
		t.Error("seeds 7 and 8 give the same inputs")
	}
}

// TestRunRejectsBadFlags covers the command line.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "paper-figures", "-trace", "2"},
		{"-workload", "paper-figures", "-seconds", "0"},
		{"-workload", "paper-figures", "-seed", "-1"},
	} {
		var out bytes.Buffer
		if err := run(append(args, "-workdir", t.TempDir()), &out); err == nil {
			t.Errorf("%v: no error", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}

// TestBenchmarkJSONMatchesCode pins the repository's BENCHMARK.json to
// the workloads and metrics this command reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), code has %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestProbeLeftOutOfWindow checks that a timed window leaves the host
// probe's time and garbage out of the pass it measures.
func TestProbeLeftOutOfWindow(t *testing.T) {
	p := &passResult{}
	win := openWindow(p)
	for i := 0; i < 20; i++ {
		win.checkpoint()
	}
	win.close()
	if p.slowdown <= 0 || p.probeS <= 0 {
		t.Fatalf("slowdown %v, probe time %v: the probe did not run", p.slowdown, p.probeS)
	}
	if p.wall > p.probeS/2 {
		t.Errorf("window of probes only: wall %v s, probes took %v s", p.wall, p.probeS)
	}
	if p.allocMB > 1 {
		t.Errorf("window of probes only allocated %v MiB", p.allocMB)
	}
}
