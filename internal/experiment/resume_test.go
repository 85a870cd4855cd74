package experiment

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func resumeOptions(seed uint64, workers int) Options {
	return Options{Seed: seed, Runs: 12, SecurityRuns: 40, TraceRuns: 4, Workers: workers}
}

// fleetFigure runs spec through a result-cache entry under cacheDir as
// worker owner and returns the figure JSON and the entry directory.
func fleetFigure(t *testing.T, spec *scenario.Scenario, opt Options, cacheDir, owner string) ([]byte, string) {
	t.Helper()
	key, err := scenario.ContentKey(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	store, err := resultcache.Open(cacheDir, key, spec.ID, opt.Seed, owner)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := scenario.NewEngine(opt)
	eng.SuperviseFleet(runner.NewSupervisor(0), dispatch.New(store, dispatch.Options{Owner: owner}))
	fig, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	js, err := fig.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js, store.Dir()
}

// TestRunKeyDiscriminates pins the key a run resumes under — the
// content key of its cache entry — at the resume options: it must
// survive a change of -workers, so a rerun at another worker count
// reuses the entry, and move with the seed, every effort count, the
// fault rate and the spec, so a rerun never serves foreign trials.
func TestRunKeyDiscriminates(t *testing.T) {
	specs := FigureSpecs()
	base := resumeOptions(1, 2)
	k0, err := scenario.ContentKey(&specs[0], base)
	if err != nil {
		t.Fatal(err)
	}

	w := base
	w.Workers = 7
	kw, err := scenario.ContentKey(&specs[0], w)
	if err != nil {
		t.Fatal(err)
	}
	if k0 != kw {
		t.Fatal("worker count changed the run key; a rerun at another -workers value would not resume")
	}

	diffs := map[string]Options{}
	s := base
	s.Seed = 2
	diffs["seed"] = s
	r := base
	r.Runs++
	diffs["runs"] = r
	sr := base
	sr.SecurityRuns++
	diffs["security runs"] = sr
	f := base
	f.FaultRate = 0.1
	diffs["fault rate"] = f
	for name, opt := range diffs {
		k, err := scenario.ContentKey(&specs[0], opt)
		if err != nil {
			t.Fatal(err)
		}
		if k == k0 {
			t.Errorf("%s change left the run key unchanged", name)
		}
	}

	k1, err := scenario.ContentKey(&specs[1], base)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k0 {
		t.Fatal("two different specs share a run key")
	}
}

// TestResumeByteIdenticalAcrossRegistry is the resume determinism
// contract over every figure and ablation spec: a cache entry filled
// at one worker count, then cut at a seeded byte offset of its shard —
// mid-frame included, the way SIGKILL leaves a log — resumes at
// another worker count to a figure byte-identical to an uninterrupted
// cacheless run. Trial results are index-labeled, so the surviving
// records plus the freshly computed remainder are the same set an
// uninterrupted run computes, wherever the cut landed.
func TestResumeByteIdenticalAcrossRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every spec three times")
	}
	var resumedSome atomic.Int64
	specs := append(FigureSpecs(), AblationSpecs()...)
	for i := range specs {
		spec, i := specs[i], i
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			opt := resumeOptions(1, 2)
			golden, err := scenario.NewEngine(opt).Run(&spec)
			if err != nil {
				t.Fatal(err)
			}
			goldenJSON, err := golden.JSON()
			if err != nil {
				t.Fatal(err)
			}

			// Fill the entry at workers 1. The shard of a fresh worker
			// on the same key is exactly the header, which bounds the
			// cut from below.
			cacheDir := t.TempDir()
			fOpt := opt
			fOpt.Workers = 1
			_, entry := fleetFigure(t, &spec, fOpt, cacheDir, "victim")
			probe, err := resultcache.Open(cacheDir, filepath.Base(entry), spec.ID, opt.Seed, "probe")
			if err != nil {
				t.Fatal(err)
			}
			full := probe.Loaded()
			probe.Close()
			hdr, err := os.Stat(filepath.Join(entry, "shard-probe.log"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(filepath.Join(entry, "shard-probe.log")); err != nil {
				t.Fatal(err)
			}
			shard := filepath.Join(entry, "shard-victim.log")
			st, err := os.Stat(shard)
			if err != nil {
				t.Fatal(err)
			}
			rnd := rand.New(rand.NewSource(int64(i)*31 + 7))
			cut := hdr.Size() + rnd.Int63n(st.Size()-hdr.Size())
			if err := os.Truncate(shard, cut); err != nil {
				t.Fatal(err)
			}

			// Resume at workers 4, as the killed worker: its reopen
			// repairs the torn tail before appending.
			rOpt := opt
			rOpt.Workers = 4
			kept, err := resultcache.Open(cacheDir, filepath.Base(entry), spec.ID, opt.Seed, "victim")
			if err != nil {
				t.Fatal(err)
			}
			loaded := kept.Loaded()
			kept.Close()
			if loaded >= full {
				t.Fatalf("cut at byte %d of %d kept all %d trials; the test is vacuous", cut, st.Size(), full)
			}
			if loaded > 0 {
				resumedSome.Add(1)
			}
			resumedJSON, _ := fleetFigure(t, &spec, rOpt, cacheDir, "victim")
			if !bytes.Equal(goldenJSON, resumedJSON) {
				t.Fatalf("resumed figure (%d of %d trials kept) differs from uninterrupted golden (%d vs %d bytes)",
					loaded, full, len(resumedJSON), len(goldenJSON))
			}
		})
	}
	t.Cleanup(func() {
		if !t.Failed() && resumedSome.Load() == 0 {
			t.Error("no spec resumed from a non-empty cut; every cut landed in the first record")
		}
	})
}

// TestSupervisedUninterruptedMatchesPlain pins that merely attaching
// the supervision layer (no interruption) does not change output: the
// supervised engine's figure is byte-identical to the plain engine's.
func TestSupervisedUninterruptedMatchesPlain(t *testing.T) {
	opt := resumeOptions(42, 2)
	spec := FigureSpecs()[0]
	plain, err := scenario.NewEngine(opt).Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}

	eng := scenario.NewEngine(opt)
	eng.Supervise(runner.NewSupervisor(0))
	fig, err := eng.Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	supJSON, err := fig.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainJSON, supJSON) {
		t.Fatal("supervised engine changed output with no interruption")
	}
}

// TestQuarantineSurfacesThroughEngine pins the end-to-end quarantine
// path: a spec with a trial that panics yields a QuarantineError
// naming the batch and trial, the healthy trials still run, and the
// supervisor records the failure for the manifest.
func TestQuarantineSurfacesThroughEngine(t *testing.T) {
	var ran int64
	scenario.RegisterCustom("test-panicking", func(e *scenario.Engine, s *scenario.Scenario) ([]stats.Series, []string, error) {
		_, err := scenario.Trials(e, s.ID+"/panicky", 8, func(i int) (float64, error) {
			atomic.AddInt64(&ran, 1)
			if i == 4 {
				panic("injected trial failure")
			}
			return float64(i), nil
		})
		if err != nil {
			return nil, nil, err
		}
		return []stats.Series{{Name: "x", X: []float64{0}, Y: []float64{0}, CI: []float64{0}}}, nil, nil
	})
	spec := scenario.Scenario{
		ID: "quarantine-e2e", Title: "t", XLabel: "x", YLabel: "y",
		Measure: scenario.Measure{Kind: scenario.KindCustom, Custom: "test-panicking"},
	}
	sup := runner.NewSupervisor(0)
	eng := scenario.NewEngine(resumeOptions(1, 2))
	eng.Supervise(sup)
	_, err := eng.Run(&spec)
	var qe *runner.QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuarantineError", err)
	}
	te := qe.Trials[0]
	if te.Trial != 4 || te.Batch != "quarantine-e2e/panicky" {
		t.Fatalf("quarantined = %+v, want trial 4 of quarantine-e2e/panicky", te)
	}
	if got := atomic.LoadInt64(&ran); got != 8 {
		t.Fatalf("%d trials ran, want all 8 despite the panic", got)
	}
	if q := sup.Quarantined(); len(q) != 1 {
		t.Fatalf("supervisor recorded %d quarantines, want 1", len(q))
	}
}
