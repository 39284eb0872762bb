package main

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poissonSchedule returns the due times, as offsets from the start of a
// step, of Poisson arrivals at rate per second over dur. The same seed
// always gives the same schedule.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, due)
	}
}

// openResult is the outcome of one open-loop step.
type openResult struct {
	// lat holds each request's time from when it was due to when its
	// reply arrived; a failed request holds +Inf.
	lat dist
	// late holds how far behind its due time the generator handed each
	// request to a connection queue.
	late    dist
	tally   tally
	backlog int64 // requests dispatched but unanswered at the last due time
	elapsed time.Duration
}

// runOpen replays sched as an open loop over conns connections: a single
// generator goroutine releases each request at its due time into a queue
// that conns workers drain, so a slow reply delays the requests queued
// behind it, and every request is timed from when it was due. do serves
// request i, due at due, on connection w.
func runOpen(sched []time.Duration, conns int, do func(w, i int, due time.Time) error) openResult {
	n := len(sched)
	queue := make(chan int, n) // sized to the number of sends: the generator never blocks
	lat := make([]float64, n)
	late := make([]float64, n)
	errs := make([]error, n)
	var answered atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				due := start.Add(sched[i])
				errs[i] = do(w, i, due)
				lat[i] = float64(time.Since(due)) / float64(time.Millisecond)
				answered.Add(1)
			}
		}(w)
	}
	for i, due := range sched {
		at := start.Add(due)
		sleepUntil(at)
		late[i] = float64(time.Since(at)) / float64(time.Millisecond)
		queue <- i
	}
	backlog := int64(n) - answered.Load()
	close(queue)
	wg.Wait()
	r := openResult{backlog: backlog, elapsed: time.Since(start)}
	for i, err := range errs {
		r.tally.add(err)
		if err != nil {
			lat[i] = math.Inf(1)
		}
	}
	r.lat = newDistMs(lat)
	r.late = newDistMs(late)
	return r
}

// runClosed keeps conns connections busy for dur: each sends its next
// request as soon as its previous reply arrives, so the system runs at
// saturation and completions per second measure its capacity. do serves
// request i, numbered in the order sent, on connection w. Each request is
// timed from when it was sent; lateness and backlog stay empty.
func runClosed(conns int, dur time.Duration, do func(w, i int) error) openResult {
	var next atomic.Int64
	var mu sync.Mutex
	var lat []float64
	var t tally
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				err := do(w, i)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				if err != nil {
					ms = math.Inf(1)
				}
				mu.Lock()
				lat = append(lat, ms)
				t.add(err)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return openResult{lat: newDistMs(lat), tally: t, elapsed: time.Since(start)}
}

// sleepUntil blocks until at. It sleeps in nanosleep(2) rather than
// time.Sleep: the runtime's timers wake up to a millisecond late on Linux,
// which would add up to a millisecond to every open-loop latency, while
// nanosleep overshoots by tens of microseconds.
func sleepUntil(at time.Time) {
	for {
		d := time.Until(at)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && !errors.Is(err, syscall.EINTR) {
			time.Sleep(d)
		}
	}
}
