package campaign

import (
	"errors"
	"runtime"
	"sync"
)

// ErrCanceled is returned by Run when Options.Cancel closed before the
// campaign completed. Every unit finished by then was folded and — with
// a manifest attached — journaled, so a canceled campaign resumes
// exactly where it stopped.
var ErrCanceled = errors.New("campaign: canceled")

// poolJob is one unit of work on a Pool: run receives the worker's
// private simulation arena, the worker's index (for telemetry shard
// claiming) and the job's unit. A campaign submits one run function
// for all its units, so queueing a unit allocates no closure.
type poolJob struct {
	run  func(ws *workerState, w, unit int)
	unit int
}

// Pool is the bounded worker pool every in-process campaign executes on:
// a private Run builds one of its own, and any number of concurrent Runs
// can share one through Options.Pool. Each submitting client
// owns a FIFO queue; workers take the next job round-robin across the
// clients that currently have queued work, so one huge campaign cannot
// starve a small one — fair scheduling at unit granularity, in the
// spirit of shared-state multi-scheduler designs. Jobs from one client
// still run in submission order (per-client FIFO), which is what the
// campaign determinism contract needs: results fold by unit index, not
// by completion order, so interleaving never changes output.
//
// Each worker goroutine holds one persistent workerState arena, taken
// from (and returned to) the process-wide arena pool, so a long-lived
// daemon keeps its warmed-up simulation buffers across campaigns.
type Pool struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	queues map[string][]poolJob
	ring   []string // clients with queued work, round-robin order
	rr     int
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts a shared pool of the given width (0 means GOMAXPROCS).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, queues: map[string][]poolJob{}}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// submit queues one job per unit on client's FIFO, in order. It never
// blocks and never runs a job inline; a closed pool panics (callers
// must sequence Close after every Run targeting the pool has returned).
func (p *Pool) submit(client string, run func(ws *workerState, w, unit int), units ...int) {
	if len(units) == 0 {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("campaign: submit on a closed Pool")
	}
	q, ok := p.queues[client]
	if !ok {
		p.ring = append(p.ring, client)
		q = make([]poolJob, 0, len(units))
	}
	for _, u := range units {
		q = append(q, poolJob{run: run, unit: u})
	}
	p.queues[client] = q
	p.mu.Unlock()
	for range units {
		p.cond.Signal()
	}
}

// Close drains every queued job and stops the workers. It blocks until
// the last job finished.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// worker is one pool goroutine: pick the next client round-robin, pop
// the head of its queue, run it on the private arena.
func (p *Pool) worker(w int) {
	defer p.wg.Done()
	ws := getWorkerState()
	defer putWorkerState(ws)
	for {
		p.mu.Lock()
		for !p.closed && len(p.ring) == 0 {
			p.cond.Wait()
		}
		if len(p.ring) == 0 { // closed and drained
			p.mu.Unlock()
			return
		}
		if p.rr >= len(p.ring) {
			p.rr = 0
		}
		client := p.ring[p.rr]
		q := p.queues[client]
		job := q[0]
		q[0] = poolJob{} // release the closure for GC
		if q = q[1:]; len(q) == 0 {
			delete(p.queues, client)
			// Removing the client leaves rr pointing at its successor.
			p.ring = append(p.ring[:p.rr], p.ring[p.rr+1:]...)
		} else {
			p.queues[client] = q
			p.rr++
		}
		p.mu.Unlock()
		job.run(ws, w, job.unit)
	}
}

// canceled reports whether the cancel channel (possibly nil) closed.
func canceled(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
