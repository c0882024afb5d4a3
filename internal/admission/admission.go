// Package admission is the concurrency gate in front of query execution:
// a semaphore whose capacity counts concurrently evaluating queries, with
// a bounded FIFO wait queue and a queue deadline. Under overload it
// degrades in the only order that keeps a server alive: admit what fits,
// queue a bounded amount of patience, and shed the rest immediately —
// callers turn sheds into 429 + Retry-After instead of letting unbounded
// goroutines pile up until the process dies.
package admission

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Sentinel errors callers map to protocol responses.
var (
	// ErrShed reports an immediate rejection: capacity was full and the
	// wait queue was at its limit, so the request was shed without waiting.
	ErrShed = errors.New("admission: shed, wait queue full")
	// ErrQueueTimeout reports a rejection after queuing: capacity did not
	// free up within the queue deadline.
	ErrQueueTimeout = errors.New("admission: queue deadline exceeded")
)

// Options configure a Controller.
type Options struct {
	// Capacity is the number of queries admitted concurrently (required
	// > 0).
	Capacity int64
	// QueueLimit bounds the wait queue; a request arriving with the queue
	// full is shed immediately. 0 means no queue: anything that does not
	// fit right away is shed.
	QueueLimit int
	// QueueTimeout bounds how long a queued request waits before it is
	// rejected with ErrQueueTimeout. <= 0 means queued requests wait until
	// capacity frees or their context is done.
	QueueTimeout time.Duration
}

// Stats is a point-in-time snapshot of the controller's counters.
type Stats struct {
	Admitted  int64 `json:"admitted"`   // requests that got capacity
	Queued    int64 `json:"queued"`     // requests that waited before a verdict
	Shed      int64 `json:"shed"`       // immediate rejections (queue full)
	TimedOut  int64 `json:"timed_out"`  // rejections after the queue deadline
	Cancelled int64 `json:"cancelled"`  // waiters whose context ended first
	InFlight  int64 `json:"in_flight"`  // queries currently admitted
	Waiting   int   `json:"waiting"`    // current queue length
	Capacity  int64 `json:"capacity"`   // configured query capacity
	QueueCap  int   `json:"queue_cap"`  // configured queue limit
	PeakQueue int   `json:"peak_queue"` // high-water queue length
}

// Controller is the semaphore admission gate. Safe for concurrent use.
type Controller struct {
	mu   sync.Mutex
	opts Options
	// inflight counts admitted queries; queue is FIFO — released capacity
	// always goes to the longest waiter first, so no waiter starves while
	// the queue deadline still has patience for it. Each waiter's channel
	// is closed under mu when it is admitted.
	inflight int64
	queue    []chan struct{}

	admitted, queuedN, shed, timedOut, cancelled int64
	peakQueue                                    int
}

// New builds a Controller. It panics on a non-positive capacity — an
// admission gate that can never admit is a configuration bug, not a
// runtime state.
func New(opts Options) *Controller {
	if opts.Capacity <= 0 {
		panic("admission: Capacity must be > 0")
	}
	if opts.QueueLimit < 0 {
		opts.QueueLimit = 0
	}
	return &Controller{opts: opts}
}

// Acquire requests one unit of capacity, waiting in the bounded FIFO queue
// if necessary. On success it returns a release function (idempotent;
// callers defer it). On failure it returns ErrShed, ErrQueueTimeout, or
// the context's error.
func (c *Controller) Acquire(ctx context.Context) (func(), error) {
	c.mu.Lock()
	// Capacity only frees up through dispatchLocked, which drains the queue
	// first, so a free slot implies nobody is waiting ahead of this request.
	if c.inflight < c.opts.Capacity {
		c.inflight++
		c.admitted++
		c.mu.Unlock()
		return c.releaser(), nil
	}
	if len(c.queue) >= c.opts.QueueLimit {
		c.shed++
		c.mu.Unlock()
		return nil, ErrShed
	}
	w := make(chan struct{})
	c.queue = append(c.queue, w)
	c.queuedN++
	if len(c.queue) > c.peakQueue {
		c.peakQueue = len(c.queue)
	}
	c.mu.Unlock()

	var timeout <-chan time.Time
	if c.opts.QueueTimeout > 0 {
		t := time.NewTimer(c.opts.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-w:
		return c.releaser(), nil
	case <-timeout:
		if c.abandon(w, &c.timedOut) {
			return nil, ErrQueueTimeout
		}
		// Admission raced the timer and won: the slot is already ours.
		return c.releaser(), nil
	case <-done:
		if c.abandon(w, &c.cancelled) {
			return nil, ctx.Err()
		}
		return c.releaser(), nil
	}
}

// abandon removes a waiter that gave up, or reports false if it was
// admitted concurrently (in which case the caller owns the slot).
func (c *Controller) abandon(w chan struct{}, counter *int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			*counter++
			return true
		}
	}
	return false
}

// releaser returns the idempotent release closure for an admitted query.
func (c *Controller) releaser() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.inflight--
			c.dispatchLocked()
			c.mu.Unlock()
		})
	}
}

// dispatchLocked hands free slots to queued waiters, FIFO.
func (c *Controller) dispatchLocked() {
	for len(c.queue) > 0 && c.inflight < c.opts.Capacity {
		close(c.queue[0])
		c.queue = c.queue[1:]
		c.inflight++
		c.admitted++
	}
}

// Saturated reports whether the controller would shed an arriving request
// right now: capacity full and no queue slack. Health endpoints degrade
// on this signal before clients start seeing 429s en masse.
func (c *Controller) Saturated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue) >= c.opts.QueueLimit &&
		(c.opts.QueueLimit > 0 || c.inflight >= c.opts.Capacity)
}

// Stats snapshots the counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Admitted: c.admitted, Queued: c.queuedN, Shed: c.shed,
		TimedOut: c.timedOut, Cancelled: c.cancelled,
		InFlight: c.inflight, Waiting: len(c.queue),
		Capacity: c.opts.Capacity, QueueCap: c.opts.QueueLimit,
		PeakQueue: c.peakQueue,
	}
}
