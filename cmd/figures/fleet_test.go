package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/scenario"
)

// fleetOpt mirrors the Options run() builds from the fleet test's CLI
// flags, so the test can derive the same content key the CLI will.
func fleetOpt(seed uint64, securityRuns int) experiment.Options {
	opt := experiment.DefaultOptions()
	opt.Seed = seed
	opt.SecurityRuns = securityRuns
	return opt
}

// fig06Spec fetches the registry's fig06 spec (security-point: cheap,
// fully synthetic).
func fig06Spec(t *testing.T) scenario.Scenario {
	t.Helper()
	for _, s := range experiment.FigureSpecs() {
		if s.ID == "fig06" {
			return s
		}
	}
	t.Fatal("fig06 missing from the registry")
	return scenario.Scenario{}
}

// readArtifacts returns fig06's CSV and JSON bytes from an output dir.
func readArtifacts(t *testing.T, dir string) ([]byte, []byte) {
	t.Helper()
	csv, err := os.ReadFile(filepath.Join(dir, "fig06.csv"))
	if err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(filepath.Join(dir, "fig06.json"))
	if err != nil {
		t.Fatal(err)
	}
	return csv, js
}

// TestFleetStaleLeaseStolen pins the steal-back path end to end: a
// lease abandoned by a dead worker (forged here with an ancient mtime)
// is stolen by the next run, the chunk recomputes, and the artifacts
// are byte-identical to a cacheless run. The manifest's
// dispatch.steals counter proves the steal actually happened.
func TestFleetStaleLeaseStolen(t *testing.T) {
	const securityRuns = 300
	base := []string{
		"-fig", "fig06", "-no-plot", "-json",
		"-security-runs", fmt.Sprint(securityRuns), "-seed", "1",
	}
	goldenDir := t.TempDir()
	if err := run(append([]string{"-out", goldenDir}, base...), os.Stdout); err != nil {
		t.Fatal(err)
	}
	goldenCSV, goldenJSON := readArtifacts(t, goldenDir)

	// Forge the dead worker's droppings: the cache entry the run will
	// address, holding a stale lease on the first chunk of the first
	// security batch.
	spec := fig06Spec(t)
	opt := fleetOpt(1, securityRuns)
	key, err := scenario.ContentKey(&spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()
	store, err := resultcache.Open(cacheDir, key, spec.ID, opt.Seed, "dead-worker")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte("fig06/security/s0/x0"))
	lease := filepath.Join(store.LeaseDir(), fmt.Sprintf("%x-0.lease", sum[:8]))
	if err := os.WriteFile(lease, []byte("dead-worker\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ancient := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(lease, ancient, ancient); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	outDir := t.TempDir()
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	args := append([]string{
		"-out", outDir, "-cache", cacheDir, "-manifest", manifest,
	}, base...)
	if err := run(args, os.Stdout); err != nil {
		t.Fatal(err)
	}

	gotCSV, gotJSON := readArtifacts(t, outDir)
	if !bytes.Equal(gotCSV, goldenCSV) {
		t.Error("post-steal CSV differs from the cacheless golden")
	}
	if !bytes.Equal(gotJSON, goldenJSON) {
		t.Error("post-steal JSON differs from the cacheless golden")
	}
	if _, err := os.Stat(lease); !os.IsNotExist(err) {
		t.Errorf("stale lease still present after the run (stat err = %v)", err)
	}

	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ValidateManifestBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	var steals, leases int64 = -1, -1
	for _, c := range m.Counters {
		switch c.Name {
		case "dispatch.steals":
			steals = c.Value
		case "dispatch.leases":
			leases = c.Value
		}
	}
	if steals < 1 {
		t.Errorf("dispatch.steals = %d, want >= 1 (the forged stale lease)", steals)
	}
	if leases < 1 {
		t.Errorf("dispatch.leases = %d, want >= 1", leases)
	}
}

// TestCacheResumeRecordedInManifest pins the audit record of a warm
// rerun: its manifest carries one resumed event naming the figure,
// the trial count served from the cache and the entry key.
func TestCacheResumeRecordedInManifest(t *testing.T) {
	const securityRuns = 300
	cacheDir := t.TempDir()
	args := []string{
		"-fig", "fig06", "-no-plot", "-cache", cacheDir,
		"-security-runs", fmt.Sprint(securityRuns), "-seed", "1",
	}
	if err := run(args, os.Stdout); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	if err := run(append(args, "-manifest", manifest), os.Stdout); err != nil {
		t.Fatal(err)
	}

	spec := fig06Spec(t)
	key, err := scenario.ContentKey(&spec, fleetOpt(1, securityRuns))
	if err != nil {
		t.Fatal(err)
	}
	store, err := resultcache.Open(cacheDir, key, spec.ID, 1, "reader")
	if err != nil {
		t.Fatal(err)
	}
	trials := store.Loaded()
	store.Close()
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ValidateManifestBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	var resumed []obs.RunEvent
	for _, ev := range m.Events {
		if ev.Kind == obs.EventResumed {
			resumed = append(resumed, ev)
		}
	}
	want := fmt.Sprintf("fig06: %d trials from cache entry %s", trials, key)
	if trials == 0 || len(resumed) != 1 || resumed[0].Detail != want {
		t.Fatalf("resumed events = %+v; want one with detail %q", resumed, want)
	}
}

// TestFleetKillResumeByteIdentical is the cache flavor of the
// crash-safety acceptance test: SIGKILL a -cache run mid-flight —
// leaving torn shard tails and orphaned leases — then rerun with the
// same -cache and a short lease TTL. The rerun must steal the
// orphans, finish the remaining trials, and produce artifacts
// byte-identical to an uninterrupted cacheless run. No resume flag:
// the cache resumes implicitly.
func TestFleetKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills subprocesses")
	}
	var midRunKills int64
	for _, seed := range []uint64{1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			killAndRerun(t, seed, 4, 4, int64(seed)*37+5, &midRunKills)
		})
	}
	requireMidRunKill(t, &midRunKills)
}

// requireMidRunKill fails t, once its subtests are done, if no victim
// was killed before it finished: the kill window must overlap the run.
func requireMidRunKill(t *testing.T, midRunKills *int64) {
	t.Cleanup(func() {
		if !t.Failed() && atomic.LoadInt64(midRunKills) == 0 {
			t.Error("no subprocess was killed mid-run; the kill window no longer overlaps the run — retune the delays")
		}
	})
}

// killAndRerun runs fig06 at seed with -cache and -workers workers,
// SIGKILLs it after a delay drawn from killSeed, reruns it on the same
// cache at rerunWorkers, and requires artifacts byte-identical to an
// uninterrupted cacheless run.
func killAndRerun(t *testing.T, seed uint64, workers, rerunWorkers int, killSeed int64, midRunKills *int64) {
	base := []string{
		"-fig", "fig06", "-no-plot", "-json",
		"-runs", "40", "-security-runs", "4000", "-trace-runs", "5",
		"-seed", fmt.Sprint(seed),
	}
	goldenDir := t.TempDir()
	if err := run(append([]string{"-out", goldenDir}, base...), os.Stdout); err != nil {
		t.Fatal(err)
	}
	goldenCSV, goldenJSON := readArtifacts(t, goldenDir)

	outDir, cacheDir := t.TempDir(), t.TempDir()
	args := append([]string{
		"-out", outDir, "-cache", cacheDir, "-lease-ttl", "300ms",
	}, base...)
	// Seeded random kill point somewhere inside the run.
	rnd := rand.New(rand.NewSource(killSeed))
	delay := 150*time.Millisecond + time.Duration(rnd.Int63n(int64(600*time.Millisecond)))
	victim, _ := figuresCmd(t, append(args, "-workers", fmt.Sprint(workers)))
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(delay)
	_ = victim.Process.Kill() // SIGKILL: no lease release, no shard close
	if err := victim.Wait(); err != nil {
		atomic.AddInt64(midRunKills, 1)
	} else {
		t.Logf("run finished in under %v; rerun will replay a complete cache", delay)
	}
	if left := tmpDroppings(t, outDir); len(left) != 0 {
		t.Fatalf("SIGKILL left temp artifacts: %v", left)
	}

	rerun, stderr := figuresCmd(t, append(args, "-workers", fmt.Sprint(rerunWorkers)))
	if err := rerun.Run(); err != nil {
		t.Fatalf("cache rerun failed: %v\n%s", err, stderr.String())
	}
	gotCSV, gotJSON := readArtifacts(t, outDir)
	if !bytes.Equal(gotCSV, goldenCSV) {
		t.Errorf("cache-resumed CSV differs from uninterrupted golden (%d vs %d bytes)", len(gotCSV), len(goldenCSV))
	}
	if !bytes.Equal(gotJSON, goldenJSON) {
		t.Errorf("cache-resumed JSON differs from uninterrupted golden (%d vs %d bytes)", len(gotJSON), len(goldenJSON))
	}
	if left := tmpDroppings(t, outDir); len(left) != 0 {
		t.Fatalf("rerun left temp artifacts: %v", left)
	}
}

// TestFleetTwoProcessByteIdentical runs two concurrent CLI processes
// against one shared cache directory — the worked fleet example from
// the README — and requires both to emit artifacts byte-identical to
// a single cacheless process. Re-exec gives each process its own pid
// and therefore its own default fleet ID and shard.
func TestFleetTwoProcessByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	base := []string{
		"-fig", "fig06", "-no-plot", "-json",
		"-runs", "40", "-security-runs", "2000", "-trace-runs", "5",
		"-seed", "1", "-workers", "2",
	}
	goldenDir := t.TempDir()
	if err := run(append([]string{"-out", goldenDir}, base...), os.Stdout); err != nil {
		t.Fatal(err)
	}
	goldenCSV, goldenJSON := readArtifacts(t, goldenDir)

	cacheDir := t.TempDir()
	outA, outB := t.TempDir(), t.TempDir()
	procA, errA := figuresCmd(t, append([]string{"-out", outA, "-cache", cacheDir}, base...))
	procB, errB := figuresCmd(t, append([]string{"-out", outB, "-cache", cacheDir}, base...))
	if err := procA.Start(); err != nil {
		t.Fatal(err)
	}
	if err := procB.Start(); err != nil {
		t.Fatal(err)
	}
	if err := procA.Wait(); err != nil {
		t.Fatalf("worker A failed: %v\n%s", err, errA.String())
	}
	if err := procB.Wait(); err != nil {
		t.Fatalf("worker B failed: %v\n%s", err, errB.String())
	}
	for name, dir := range map[string]string{"A": outA, "B": outB} {
		csv, js := readArtifacts(t, dir)
		if !bytes.Equal(csv, goldenCSV) {
			t.Errorf("worker %s CSV differs from the single-process golden", name)
		}
		if !bytes.Equal(js, goldenJSON) {
			t.Errorf("worker %s JSON differs from the single-process golden", name)
		}
	}
}
