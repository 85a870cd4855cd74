package runner

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memStore is an in-memory ResultStore for exercising the supervised
// runner without touching disk.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
	// saveHook, when set, runs after each successful Save with the total
	// number of saves so far.
	saveHook func(saves int)
	saves    int
}

func newMemStore() *memStore { return &memStore{m: make(map[string][]byte)} }

func (s *memStore) key(batch string, trial int) string {
	return fmt.Sprintf("%s\x00%d", batch, trial)
}

func (s *memStore) Lookup(batch string, trial int) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[s.key(batch, trial)]
	return data, ok
}

func (s *memStore) Save(batch string, trial int, data []byte) error {
	s.mu.Lock()
	s.m[s.key(batch, trial)] = data
	s.saves++
	n := s.saves
	hook := s.saveHook
	s.mu.Unlock()
	if hook != nil {
		hook(n)
	}
	return nil
}

func (s *memStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func TestMapTrialsPanicNamesTrial(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := MapTrials(workers, 8, func(i int) (int, error) {
			if i == 5 {
				panic("boom at five")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: want error from panicking trial", workers)
		}
		var te *TrialError
		if !errors.As(err, &te) {
			t.Fatalf("workers=%d: err = %v, want *TrialError", workers, err)
		}
		if te.Trial != 5 || te.PanicValue != "boom at five" {
			t.Fatalf("workers=%d: TrialError = %+v", workers, te)
		}
		if !strings.Contains(err.Error(), "trial 5") || !strings.Contains(err.Error(), "boom at five") {
			t.Fatalf("workers=%d: error text does not identify the trial: %v", workers, err)
		}
		if te.Stack == "" {
			t.Fatalf("workers=%d: panic stack not captured", workers)
		}
	}
}

func TestSupervisedQuarantinesPanicAndContinues(t *testing.T) {
	sup := NewSupervisor(0)
	var ran atomic.Int64
	_, err := Supervised(sup, nil, "batch-a", 4, 16, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			panic(fmt.Sprintf("trial %d exploded", i))
		}
		return i * i, nil
	})
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuarantineError", err)
	}
	if qe.Batch != "batch-a" || len(qe.Trials) != 1 {
		t.Fatalf("quarantine = %+v", qe)
	}
	te := qe.Trials[0]
	if te.Trial != 3 || te.Batch != "batch-a" || te.PanicValue != "trial 3 exploded" {
		t.Fatalf("TrialError = %+v", te)
	}
	if got := ran.Load(); got != 16 {
		t.Fatalf("ran %d trials, want all 16 (run must continue past the panic)", got)
	}
	if q := sup.Quarantined(); len(q) != 1 || q[0].Trial != 3 {
		t.Fatalf("supervisor quarantine record = %+v", q)
	}
}

func TestSupervisedWatchdogRetryDeterminism(t *testing.T) {
	// Trial 2 hangs on its first attempt and succeeds on the retry; the
	// retry must recompute the same index so the result set is the same
	// as an un-hung run.
	var attempts sync.Map
	sup := NewSupervisor(50 * time.Millisecond)
	hang := make(chan struct{})
	defer close(hang)
	out, err := Supervised(sup, nil, "retry", 2, 6, func(i int) (float64, error) {
		n, _ := attempts.LoadOrStore(i, new(atomic.Int64))
		if a := n.(*atomic.Int64).Add(1); i == 2 && a == 1 {
			<-hang // first attempt of trial 2 hangs past the watchdog
		}
		return float64(i) * 1.5, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != float64(i)*1.5 {
			t.Fatalf("out[%d] = %v, want %v", i, v, float64(i)*1.5)
		}
	}
	n, _ := attempts.Load(2)
	if got := n.(*atomic.Int64).Load(); got != 2 {
		t.Fatalf("trial 2 attempted %d times, want 2 (one deterministic retry)", got)
	}
}

func TestSupervisedWatchdogQuarantinesAfterSecondTimeout(t *testing.T) {
	sup := NewSupervisor(30 * time.Millisecond)
	hang := make(chan struct{})
	defer close(hang)
	_, err := Supervised(sup, nil, "hung", 2, 4, func(i int) (int, error) {
		if i == 1 {
			<-hang // hangs on every attempt
		}
		return i, nil
	})
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuarantineError", err)
	}
	te := qe.Trials[0]
	if te.Trial != 1 || !te.TimedOut || te.Attempts != 2 {
		t.Fatalf("TrialError = %+v, want trial 1 timed out after 2 attempts", te)
	}
}

func TestSupervisedStopInterrupts(t *testing.T) {
	sup := NewSupervisor(0)
	store := newMemStore()
	store.saveHook = func(saves int) {
		if saves == 5 {
			sup.Stop() // drain mid-batch, as the signal handler would
		}
	}
	_, err := Supervised(sup, store, "drain", 1, 20, func(i int) (int, error) {
		return i + 100, nil
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if got := store.len(); got != 5 {
		t.Fatalf("store holds %d results, want the 5 completed before the drain", got)
	}
}

func TestSupervisedResumeFromStoreIsIdentical(t *testing.T) {
	// Interrupt a batch partway, then resume into the same store: the
	// final result slice must be bit-identical to an uninterrupted run,
	// and the resumed run must only execute the missing trials.
	trialFn := func(i int) (float64, error) {
		// Irrational-ish values so bit-identity is a real check.
		return math.Sqrt(float64(i)+2) * math.Pi, nil
	}
	golden, err := Supervised[float64](nil, nil, "resume", 1, 12, trialFn)
	if err != nil {
		t.Fatal(err)
	}

	store := newMemStore()
	sup := NewSupervisor(0)
	store.saveHook = func(saves int) {
		if saves == 7 {
			sup.Stop()
		}
	}
	if _, err := Supervised(sup, store, "resume", 1, 12, trialFn); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("first run: err = %v, want ErrInterrupted", err)
	}
	store.saveHook = nil

	var executed atomic.Int64
	sup2 := NewSupervisor(0)
	out, err := Supervised(sup2, store, "resume", 4, 12, func(i int) (float64, error) {
		executed.Add(1)
		return trialFn(i)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 12-7 {
		t.Fatalf("resumed run executed %d trials, want %d (rest from store)", got, 12-7)
	}
	for i := range golden {
		if math.Float64bits(out[i]) != math.Float64bits(golden[i]) {
			t.Fatalf("out[%d] = %x, golden = %x: resume not bit-identical",
				i, math.Float64bits(out[i]), math.Float64bits(golden[i]))
		}
	}
}

func TestSupervisedStoreRoundTripsStructs(t *testing.T) {
	type trialResult struct {
		Delivered bool
		Time      float64
		Model     []float64
	}
	trialFn := func(i int) (trialResult, error) {
		return trialResult{
			Delivered: i%2 == 0,
			Time:      math.Log1p(float64(i)),
			Model:     []float64{float64(i), math.NaN(), math.Inf(1)},
		}, nil
	}
	store := newMemStore()
	first, err := Supervised(NewSupervisor(0), store, "structs", 2, 6, trialFn)
	if err != nil {
		t.Fatal(err)
	}
	// Second run must hit the store for every trial.
	second, err := Supervised(NewSupervisor(0), store, "structs", 2, 6,
		func(i int) (trialResult, error) {
			t.Errorf("trial %d executed despite a store hit", i)
			return trialResult{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].Delivered != second[i].Delivered ||
			math.Float64bits(first[i].Time) != math.Float64bits(second[i].Time) {
			t.Fatalf("trial %d scalar mismatch: %+v vs %+v", i, first[i], second[i])
		}
		for j := range first[i].Model {
			if math.Float64bits(first[i].Model[j]) != math.Float64bits(second[i].Model[j]) {
				t.Fatalf("trial %d model[%d] bits differ (NaN/Inf must round-trip)", i, j)
			}
		}
	}
}

func TestSupervisedErrorAbortsBatch(t *testing.T) {
	sup := NewSupervisor(0)
	wantErr := errors.New("hard failure")
	_, err := Supervised(sup, nil, "hard", 4, 10, func(i int) (int, error) {
		if i >= 4 {
			return 0, wantErr
		}
		return i, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped hard failure", err)
	}
	if !strings.Contains(err.Error(), `batch "hard"`) {
		t.Fatalf("error does not name the batch: %v", err)
	}
}

func TestSupervisedNilSupAndStoreMatchesMapTrials(t *testing.T) {
	out, err := Supervised[int](nil, nil, "plain", 3, 9, func(i int) (int, error) {
		return i * 7, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := MapTrials(3, 9, func(i int) (int, error) { return i * 7, nil })
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
	// Errors gain the batch label on the fallback path too.
	_, err = Supervised[int](nil, nil, "plain", 1, 3, func(i int) (int, error) {
		if i == 1 {
			panic("plain-path panic")
		}
		return i, nil
	})
	var te *TrialError
	if !errors.As(err, &te) || te.Trial != 1 || te.Batch != "plain" {
		t.Fatalf("err = %v, want *TrialError for trial 1 of batch plain", err)
	}
}
