package runner

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TrialError identifies one failed trial: which batch and index it was,
// how it failed (panic, watchdog timeout, or a returned error), and how
// many attempts were made. It is the error type plain MapTrials returns
// for a panicking trial and the unit the supervised runner quarantines.
type TrialError struct {
	Batch      string // batch label (scenario ID + series); empty in plain MapTrials
	Trial      int    // trial index within the batch
	Attempts   int    // attempts made before giving up
	TimedOut   bool   // the watchdog expired on every attempt
	PanicValue string // recovered panic value, when the trial panicked
	Stack      string // goroutine stack captured at the panic site
	Err        error  // underlying error for non-panic, non-timeout failures
}

// Error names the offending trial first, so the failure is identifiable
// even from a one-line log.
func (e *TrialError) Error() string {
	where := fmt.Sprintf("trial %d", e.Trial)
	if e.Batch != "" {
		where = fmt.Sprintf("trial %d of batch %q", e.Trial, e.Batch)
	}
	switch {
	case e.PanicValue != "":
		return fmt.Sprintf("%s panicked (attempt %d): %s\n%s", where, e.Attempts, e.PanicValue, e.Stack)
	case e.TimedOut:
		return fmt.Sprintf("%s exceeded the watchdog timeout on %d attempts", where, e.Attempts)
	default:
		return fmt.Sprintf("%s failed: %v", where, e.Err)
	}
}

// Unwrap exposes the underlying error, if any.
func (e *TrialError) Unwrap() error { return e.Err }

// QuarantineError reports a batch that completed its healthy trials but
// quarantined one or more panicking or hung ones. The batch's results
// are not usable; the quarantined trials are individually identified.
type QuarantineError struct {
	Batch  string
	Trials []*TrialError
}

// Error summarizes the quarantine, leading with the first offender.
func (e *QuarantineError) Error() string {
	return fmt.Sprintf("runner: batch %q: %d trial(s) quarantined; first: %v",
		e.Batch, len(e.Trials), e.Trials[0])
}

// Unwrap exposes the first quarantined trial.
func (e *QuarantineError) Unwrap() error { return e.Trials[0] }

// ErrInterrupted is returned (wrapped) by the supervised runner when a
// drain request stopped the batch before every trial ran. Completed
// trials are already persisted when a ResultStore is attached, so a
// resumed run picks up exactly where this one stopped.
var ErrInterrupted = errors.New("interrupted before all trials completed")

// ResultStore persists completed per-trial results across process
// lifetimes. Lookup returns the stored encoding of a completed trial;
// Save records one. Implementations must be safe for concurrent use —
// internal/dispatch adapts a result-cache entry to it.
type ResultStore interface {
	Lookup(batch string, trial int) (data []byte, ok bool)
	Save(batch string, trial int, data []byte) error
}

// Supervisor carries the run-wide supervision state shared by every
// batch of one command invocation: the per-trial watchdog timeout, the
// drain signal, and the quarantine record. The zero value is not
// usable; construct with NewSupervisor.
type Supervisor struct {
	timeout time.Duration
	stop    chan struct{}
	once    sync.Once

	mu          sync.Mutex
	quarantined []*TrialError
}

// NewSupervisor returns a supervisor enforcing the given per-trial
// watchdog timeout (0 disables the watchdog).
func NewSupervisor(timeout time.Duration) *Supervisor {
	return &Supervisor{timeout: timeout, stop: make(chan struct{})}
}

// Stop requests a drain: workers finish their in-flight trials, stop
// claiming new ones, and every unfinished batch returns ErrInterrupted.
// Safe to call from any goroutine, any number of times.
func (s *Supervisor) Stop() { s.once.Do(func() { close(s.stop) }) }

// Stopping reports whether a drain has been requested.
func (s *Supervisor) Stopping() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// Quarantined returns every trial quarantined so far, in the order the
// failures were recorded.
func (s *Supervisor) Quarantined() []*TrialError {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*TrialError(nil), s.quarantined...)
}

func (s *Supervisor) note(te *TrialError) {
	s.mu.Lock()
	s.quarantined = append(s.quarantined, te)
	s.mu.Unlock()
}

// Supervised is the crash-safe variant of MapTrials. On top of the
// plain determinism contract it adds, when a supervisor is attached:
//
//   - panic isolation: a panicking trial is quarantined as a TrialError
//     (index, batch, stack) instead of killing the process, and the
//     remaining trials still run;
//   - a per-trial watchdog: a trial exceeding the supervisor's timeout
//     is retried once (trials are deterministic in their index, so the
//     retry recomputes the identical result) and quarantined if the
//     retry hangs too — the abandoned attempt's goroutine can no longer
//     publish anything;
//   - drain: after Supervisor.Stop, workers finish in-flight trials and
//     the batch returns ErrInterrupted (wrapped, with progress counts).
//
// When a ResultStore is attached, every completed trial is persisted
// under (batch, index) and already-stored trials are loaded instead of
// executed. Because trial i's result depends only on i (index-labeled
// RNG substreams), the loaded-or-computed union is bit-identical to an
// uninterrupted run at any worker count.
//
// With neither a supervisor nor a store, Supervised is plain MapTrials
// plus the batch label on errors.
func Supervised[T any](sup *Supervisor, store ResultStore, batch string, workers, trials int, trial func(i int) (T, error)) ([]T, error) {
	if trials <= 0 {
		return nil, nil
	}
	if sup == nil && store == nil {
		out, err := MapTrials(workers, trials, trial)
		if err != nil {
			var te *TrialError
			if errors.As(err, &te) && te.Batch == "" {
				te.Batch = batch
			}
			return nil, fmt.Errorf("batch %q: %w", batch, err)
		}
		return out, nil
	}
	workers = ResolveWorkers(workers, trials)

	// Same per-batch instrumentation as MapTrials: zero RNG, no effect
	// on results, one atomic load when no collector is installed.
	c := obs.Active()
	if c != nil {
		batchStart := time.Now()
		c.Add(obs.ExpTrialBatches, 1)
		c.Add(obs.ExpTrials, int64(trials))
		c.Observe(obs.HistTrialBatchTrials, int64(trials))
		defer func() {
			wall := time.Since(batchStart)
			c.Add(obs.ExpBatchWallNanos, wall.Nanoseconds())
			c.Add(obs.ExpBatchCapacityNanos, wall.Nanoseconds()*int64(workers))
		}()
	}

	var (
		out        = make([]T, trials)
		errs       = make([]error, trials)
		failed     atomic.Bool
		done       atomic.Int64
		next       atomic.Int64
		qmu        sync.Mutex
		quarantine []*TrialError
	)
	worker := func() {
		for {
			if failed.Load() || (sup != nil && sup.Stopping()) {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= trials {
				return
			}
			if store != nil {
				if data, ok := store.Lookup(batch, i); ok {
					v, err := DecodeResult[T](data)
					if err != nil {
						errs[i] = fmt.Errorf("decode stored result: %w", err)
						failed.Store(true)
						return
					}
					out[i] = v
					done.Add(1)
					continue
				}
			}
			v, err, te := attempt(sup, batch, i, c, trial)
			if te != nil {
				qmu.Lock()
				quarantine = append(quarantine, te)
				qmu.Unlock()
				continue
			}
			if err != nil {
				errs[i] = err
				failed.Store(true)
				return
			}
			if store != nil {
				data, serr := EncodeResult(v)
				if serr == nil {
					serr = store.Save(batch, i, data)
				}
				if serr != nil {
					errs[i] = fmt.Errorf("store result: %w", serr)
					failed.Store(true)
					return
				}
			}
			out[i] = v
			done.Add(1)
		}
	}
	if workers == 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}

	if failed.Load() {
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("runner: batch %q trial %d: %w", batch, i, err)
			}
		}
	}
	if int(done.Load())+len(quarantine) < trials {
		return nil, fmt.Errorf("runner: batch %q: %d/%d trials complete: %w",
			batch, done.Load(), trials, ErrInterrupted)
	}
	if len(quarantine) > 0 {
		if sup != nil {
			for _, te := range quarantine {
				sup.note(te)
			}
		}
		return nil, &QuarantineError{Batch: batch, Trials: quarantine}
	}
	return out, nil
}

// attempt runs one trial shielded from panics, under the supervisor's
// watchdog when one is set, granting one deterministic retry after a
// timeout. It returns either the trial's value/error or a quarantinable
// TrialError.
func attempt[T any](sup *Supervisor, batch string, i int, c *obs.Collector, trial func(i int) (T, error)) (T, error, *TrialError) {
	var timeout time.Duration
	if sup != nil {
		timeout = sup.timeout
	}
	for a := 1; ; a++ {
		v, err, te := runShielded(batch, i, a, timeout, c, trial)
		if te == nil {
			return v, err, nil
		}
		if te.TimedOut && a == 1 {
			continue // one deterministic retry after a watchdog timeout
		}
		var zero T
		return zero, nil, te
	}
}

type attemptResult[T any] struct {
	v   T
	err error
	te  *TrialError
}

// runShielded executes one attempt with panic recovery and, when
// timeout > 0, a watchdog. The attempt goroutine publishes only into
// its own buffered channel, so an abandoned (timed-out) attempt can
// never race a later retry on shared state.
func runShielded[T any](batch string, i, att int, timeout time.Duration, c *obs.Collector, trial func(i int) (T, error)) (T, error, *TrialError) {
	if timeout <= 0 {
		return runRecover(batch, i, att, c, trial)
	}
	ch := make(chan attemptResult[T], 1)
	go func() {
		v, err, te := runRecover(batch, i, att, c, trial)
		ch <- attemptResult[T]{v: v, err: err, te: te}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.v, r.err, r.te
	case <-timer.C:
		var zero T
		return zero, nil, &TrialError{Batch: batch, Trial: i, Attempts: att, TimedOut: true}
	}
}

// runRecover executes one attempt, converting a panic into a
// TrialError carrying the recovered value and stack.
func runRecover[T any](batch string, i, att int, c *obs.Collector, trial func(i int) (T, error)) (v T, err error, te *TrialError) {
	defer func() {
		if p := recover(); p != nil {
			te = &TrialError{
				Batch: batch, Trial: i, Attempts: att,
				PanicValue: fmt.Sprint(p), Stack: string(debug.Stack()),
			}
		}
	}()
	if c != nil {
		start := time.Now()
		defer func() { c.Add(obs.ExpTrialBusyNanos, time.Since(start).Nanoseconds()) }()
	}
	v, err = trial(i)
	return v, err, nil
}

// EncodeResult serializes one trial result for a ResultStore. Gob
// preserves float64 bit patterns exactly, so a decoded result is
// bit-identical to the computed one — the property the byte-identical
// resume and cache-reuse guarantees rest on. Exported for the fleet
// dispatch layer (internal/dispatch), which reassembles batches from
// stored encodings written by other workers.
func EncodeResult[T any](v T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("encode trial result: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeResult is the inverse of EncodeResult.
func DecodeResult[T any](data []byte) (T, error) {
	var v T
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
		return v, fmt.Errorf("decode trial result: %w", err)
	}
	return v, nil
}
