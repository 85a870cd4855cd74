package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// figureOptions is the effort of both figure workloads, with one trial
// worker per thread the benchmark runs Go code on (see benchProcs).
func figureOptions(cfg config) experiment.Options {
	opt := experiment.Options{Seed: cfg.seed, Runs: 400, SecurityRuns: 2000, TraceRuns: 80, Workers: runtime.GOMAXPROCS(0)}
	if cfg.tiny {
		opt.Runs, opt.SecurityRuns, opt.TraceRuns = 8, 16, 2
	}
	return opt
}

// figureLayer files a spec's generation time under the sampler that
// dominates it: the security sampler (core/adversary/rng) for the
// traceable-rate and anonymity kinds, the delivery sampler
// (routing/model/numeric) for the rest.
func figureLayer(s *scenario.Scenario) string {
	switch s.Measure.Kind {
	case scenario.KindSecurityPoint, scenario.KindAnonymity:
		return "experiment.security"
	}
	return "experiment.delivery"
}

func pickFigures(ids ...string) ([]scenario.Scenario, error) {
	byID := map[string]scenario.Scenario{}
	for _, s := range experiment.FigureSpecs() {
		byID[s.ID] = s
	}
	var out []scenario.Scenario
	for _, id := range ids {
		s, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("unknown figure %q", id)
		}
		out = append(out, s)
	}
	return out, nil
}

// figureDigest hashes the figures' canonical JSON, each length-prefixed.
type figureDigest struct{ h hash.Hash }

func newFigureDigest() figureDigest { return figureDigest{sha256.New()} }

func (d figureDigest) add(js []byte) {
	fmt.Fprintf(d.h, "%d\n", len(js))
	d.h.Write(js)
}

func (d figureDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// traceFigureLayers fills the figure-pipeline layer metrics shared by
// both figure workloads from a traced pass.
func traceFigureLayers(p *passResult, tr *tracer, col *obs.Collector) {
	if tr == nil {
		return
	}
	trials := float64(col.Get(obs.ExpTrials))
	sec, del := tr.seconds("experiment.security"), tr.seconds("experiment.delivery")
	allocs := float64(tr.allocCount("experiment.security") + tr.allocCount("experiment.delivery"))
	p.layers["experiment.security_s"] = sec
	p.layers["experiment.delivery_s"] = del
	p.layers["experiment.trials"] = trials
	p.layers["experiment.allocs_per_trial"] = ratio(allocs, trials)
	p.layers["runner.utilization"] = ratio(float64(col.Get(obs.ExpTrialBusyNanos)), float64(col.Get(obs.ExpBatchCapacityNanos)))
	p.layers["cache.hits"] = float64(col.Get(obs.CacheHits))
	p.layers["cache.misses"] = float64(col.Get(obs.CacheMisses))
	p.layers["bench.harness_s"] = p.wall - sec - del
}

// paperFigures regenerates Figs. 4-19 with experiment.Generate, obs off
// as cmd/figures runs by default.
type paperFigures struct {
	opt   experiment.Options
	specs []scenario.Scenario
}

func (w *paperFigures) prepare(cfg config) ([]float64, error) {
	w.opt = figureOptions(cfg)
	w.specs = experiment.FigureSpecs()
	return nil, nil
}

func (w *paperFigures) pass(cfg config, tr *tracer) (*passResult, error) {
	p := &passResult{layers: map[string]float64{}}
	// Set-up, as a proxy: Generate consumes no set-up from outside (each
	// call builds its spec table, engine and traces itself), so this
	// times, standalone, the synthesis of the two contact traces that
	// fig14-fig19 repeat inside the timed window. A change that caches
	// traces inside the engine moves wall_s, not setup_s.
	t0 := time.Now()
	if _, err := trace.GenerateCambridge(rng.New(cfg.seed)); err != nil {
		return nil, err
	}
	if _, err := trace.GenerateInfocom(rng.New(cfg.seed)); err != nil {
		return nil, err
	}
	p.setup = []float64{time.Since(t0).Seconds()}

	var col *obs.Collector
	if tr != nil {
		col = obs.NewCollector()
		obs.Install(col)
		defer obs.Install(nil)
	}
	dg := newFigureDigest()
	var checkErr error
	win := openWindow(p)
	for i := range w.specs {
		win.checkpoint()
		s := &w.specs[i]
		p.attempted++
		m := tr.begin()
		fig, err := experiment.Generate(s.ID, w.opt)
		tr.end(figureLayer(s), m)
		if err != nil {
			p.failed++
			dg.add([]byte("error " + s.ID))
			continue
		}
		js, err := checkFigure(fig)
		if err != nil {
			checkErr = err
		}
		dg.add(js)
	}
	win.close()
	p.digest = dg.sum()
	p.summary = []string{fmt.Sprintf("%d figures generated, %d failed", len(w.specs), p.failed)}
	traceFigureLayers(p, tr, col)
	return p, checkErr
}

func (w *paperFigures) close() error { return nil }

// checkFigure validates a figure and returns its canonical JSON.
func checkFigure(fig *experiment.Figure) ([]byte, error) {
	js, err := fig.JSON()
	if err != nil {
		return nil, err
	}
	if err := fig.Validate(); err != nil {
		return js, fmt.Errorf("%w: %s: %v", errCheck, fig.ID, err)
	}
	return js, nil
}

// figuresWarm regenerates a security-heavy plus delivery subset of the
// paper figures from a result cache filled during set-up, with the
// sequence a new `figures -cache` process runs: content key, a fresh
// store, the dispatcher, the engine.
type figuresWarm struct {
	opt    experiment.Options
	specs  []scenario.Scenario
	root   string   // the workload's scratch directory
	dir    string   // the filled cache the passes read
	cold   [][]byte // per-spec JSON of the cold fill
	trials int64    // trials the cold fill computed
}

// warmFills is how many times set-up fills a fresh cache; set-up time
// is their median.
const warmFills = 8

func (w *figuresWarm) prepare(cfg config) ([]float64, error) {
	w.opt = figureOptions(cfg)
	if !cfg.tiny {
		// A quarter of paper-figures' security effort: reading the
		// cache back costs about three times computing it, and a pass
		// must fit a run several times.
		w.opt.SecurityRuns = 500
	}
	specs, err := pickFigures("fig04", "fig06", "fig19")
	if err != nil {
		return nil, err
	}
	w.specs = specs
	w.root = filepath.Join(cfg.workDir, fmt.Sprintf("perfbench-warm-%d", os.Getpid()))
	if err := os.RemoveAll(w.root); err != nil {
		return nil, err
	}
	fills := warmFills
	if cfg.tiny {
		fills = 1
	}
	var setups []float64
	for k := 0; k < fills; k++ {
		dir := filepath.Join(w.root, fmt.Sprintf("fill%d", k))
		t0 := time.Now()
		cold, trials, err := w.fill(dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k > 0 {
			if !equalAll(cold, w.cold) || trials != w.trials {
				return nil, fmt.Errorf("%w: cold fill %d differs from fill 0", errCheck, k)
			}
			if err := os.RemoveAll(w.dir); err != nil {
				return nil, err
			}
		}
		w.cold, w.trials, w.dir = cold, trials, dir
	}
	return setups, nil
}

// fill computes every spec into a fresh cache under dir.
func (w *figuresWarm) fill(dir string) ([][]byte, int64, error) {
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	var out [][]byte
	for i := range w.specs {
		fig, _, err := w.regenerate(dir, &w.specs[i], nil)
		if err != nil {
			return nil, 0, err
		}
		js, err := checkFigure(fig)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, js)
	}
	if col.Get(obs.CacheMisses) == 0 {
		return nil, 0, fmt.Errorf("%w: the cold fill computed no trials", errCheck)
	}
	return out, col.Get(obs.CacheMisses), nil
}

// regenerate is one `figures -cache` spec evaluation.
func (w *figuresWarm) regenerate(dir string, s *scenario.Scenario, tr *tracer) (*experiment.Figure, int, error) {
	m := tr.begin()
	key, err := scenario.ContentKey(s, w.opt)
	if err != nil {
		return nil, 0, err
	}
	store, err := resultcache.Open(dir, key, s.ID, w.opt.Seed, "perfbench")
	tr.end("resultcache.open", m)
	if err != nil {
		return nil, 0, err
	}
	defer store.Close()
	loaded := store.Loaded()
	m = tr.begin()
	eng := scenario.NewEngine(w.opt)
	eng.SuperviseFleet(nil, dispatch.New(store, dispatch.Options{Owner: "perfbench"}))
	fig, err := eng.Run(s)
	tr.end("dispatch.run", m)
	if err != nil {
		return nil, 0, err
	}
	return fig, loaded, store.Close()
}

func (w *figuresWarm) pass(cfg config, tr *tracer) (*passResult, error) {
	p := &passResult{layers: map[string]float64{}}
	// The cache layer is what this workload measures, and its check
	// needs the hit and miss counters, so obs is on in every pass.
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	dg := newFigureDigest()
	var checkErr error
	var loaded int
	win := openWindow(p)
	for i := range w.specs {
		win.checkpoint()
		s := &w.specs[i]
		p.attempted++
		// The figure pipeline's own share: the cache layers' spans
		// inside regenerate are filed under their own names.
		m := tr.beginSelf("resultcache.open", "dispatch.run")
		fig, n, err := w.regenerate(w.dir, s, tr)
		tr.endSelf(figureLayer(s), m)
		if err != nil {
			p.failed++
			dg.add([]byte("error " + s.ID))
			continue
		}
		loaded += n
		js, err := checkFigure(fig)
		want := w.cold[i]
		if cfg.corrupt {
			want = append([]byte{' '}, want...)
		}
		if err != nil {
			checkErr = err
		} else if !bytes.Equal(js, want) {
			checkErr = fmt.Errorf("%w: warm %s is not byte-identical to the cold fill", errCheck, s.ID)
		}
		dg.add(js)
	}
	win.close()
	p.digest = dg.sum()
	hits, misses, trials := col.Get(obs.CacheHits), col.Get(obs.CacheMisses), col.Get(obs.ExpTrials)
	if misses != 0 || trials != 0 {
		checkErr = fmt.Errorf("%w: warm pass computed %d trials (%d cache misses), want 0", errCheck, trials, misses)
	}
	if hits != w.trials {
		checkErr = fmt.Errorf("%w: warm pass served %d cached trials, the cold fill computed %d", errCheck, hits, w.trials)
	}
	p.summary = []string{fmt.Sprintf("%d specs regenerated from %d cached trials (%d records loaded), %d misses",
		len(w.specs), hits, loaded, misses)}
	if tr != nil {
		traceFigureLayers(p, tr, col)
		openS, runS := tr.seconds("resultcache.open"), tr.seconds("dispatch.run")
		p.layers["resultcache.open_s"] = openS
		p.layers["resultcache.records_loaded"] = float64(loaded)
		p.layers["resultcache.allocs_per_record"] = ratio(float64(tr.allocCount("resultcache.open")), float64(loaded))
		p.layers["dispatch.run_s"] = runS
		p.layers["bench.harness_s"] -= openS + runS
	}
	return p, checkErr
}

func (w *figuresWarm) close() error { return os.RemoveAll(w.root) }

func equalAll(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
