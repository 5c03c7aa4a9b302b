// Package parallel is the bounded worker pool behind every sweep-style loop
// in the repository: the ccfbench figure experiments, the chaos harness, the
// telemetry and recovery comparisons, and the equivalence suites all iterate
// independent (seed, scheduler, x-point) tasks, and this package runs them
// over N workers while keeping the *output* exactly what the serial loop
// produced.
//
// Determinism contract: results are aggregated by input index, never by
// completion order. Run returns out[i] = task(i) in a slice indexed like the
// input, so a caller that folds the slice front-to-back performs the same
// float additions, the same appends, and emits the same table rows and CSV
// lines as the serial loop — regardless of how the OS scheduler interleaved
// the workers. With workers <= 1 no goroutines are spawned at all: the tasks
// run inline, in index order, on the caller's goroutine, which is the
// byte-identical serial escape hatch (`ccfbench -workers 1`).
//
// Tasks must be independent: anything a task mutates must be task-local (or
// per-worker, via RunWithState). The simulator scratch refactor made all
// mutable netsim/coflow state explicit structs, so cloning per worker is
// cheap — RunWithState exists precisely so each worker can keep one warm
// Simulator + coflow clone across the tasks it happens to draw.
package parallel

import (
	"runtime"
	"sync"
)

// Resolve maps a workers knob to an effective worker count: values <= 0
// select runtime.GOMAXPROCS(0) (one worker per available core).
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Run executes task(0..n-1) over at most `workers` concurrent goroutines and
// returns the results indexed by input position. workers <= 0 resolves to
// GOMAXPROCS; workers <= 1 (after resolution the pool is still clamped to n)
// runs serially inline.
//
// Error semantics: the serial path stops at the first failing index, exactly
// like the loop it replaces. The parallel path stops handing out new indices
// once any task fails, lets in-flight tasks finish, and returns the error
// with the *lowest* input index among those that ran — so a failure that is
// deterministic in the input maps to a deterministic error. On error the
// partial results are discarded (nil slice).
func Run[R any](workers, n int, task func(i int) (R, error)) ([]R, error) {
	return RunWithState(workers, n,
		func(int) struct{} { return struct{}{} },
		func(_ struct{}, i int) (R, error) { return task(i) })
}

// ForEach is Run for tasks with no result value.
func ForEach(workers, n int, task func(i int) error) error {
	_, err := Run(workers, n, func(i int) (struct{}, error) { return struct{}{}, task(i) })
	return err
}

// RunWithState is Run with per-worker state: newState(w) is called once for
// each of the workers actually started (w in [0, workers)), and every task a
// worker draws receives that worker's state. This is how sweeps keep one warm
// Simulator and one cloned coflow set per worker instead of reallocating per
// task. On the serial path newState(0) is called once and every task shares
// it — the same aliasing a serial loop with hoisted locals has.
func RunWithState[S, R any](workers, n int, newState func(worker int) S, task func(state S, i int) (R, error)) ([]R, error) {
	out := make([]R, n)
	if n == 0 {
		return out, nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		state := newState(0)
		for i := 0; i < n; i++ {
			r, err := task(state, i)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	var (
		mu     sync.Mutex
		next   int // next unclaimed index
		errIdx = n // lowest failing index so far
		outErr error
		wg     sync.WaitGroup
	)
	// claim hands out indices in order; after a failure it returns -1 so
	// workers drain instead of starting work whose output would be thrown
	// away anyway.
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if outErr != nil || next >= n {
			return -1
		}
		i := next
		next++
		return i
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if outErr == nil || i < errIdx {
			errIdx, outErr = i, err
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := newState(w)
			for {
				i := claim()
				if i < 0 {
					return
				}
				r, err := task(state, i)
				if err != nil {
					fail(i, err)
					continue
				}
				out[i] = r
			}
		}(w)
	}
	wg.Wait()
	if outErr != nil {
		return nil, outErr
	}
	return out, nil
}
