package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAcquireImmediate(t *testing.T) {
	c := New(Options{Capacity: 4, QueueLimit: 4})
	release, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	st := c.Stats()
	if st.Admitted != 1 || st.InFlight != 1 {
		t.Fatalf("stats = %+v, want admitted=1 inflight=1", st)
	}
	release()
	release() // idempotent
	if st := c.Stats(); st.InFlight != 0 {
		t.Fatalf("inflight after release = %d, want 0", st.InFlight)
	}
}

func TestShedWhenQueueFull(t *testing.T) {
	c := New(Options{Capacity: 1, QueueLimit: 0})
	release, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	defer release()
	if _, err := c.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("second Acquire err = %v, want ErrShed", err)
	}
	st := c.Stats()
	if st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
	if !c.Saturated() {
		t.Fatal("Saturated() = false with full capacity and no queue")
	}
}

func TestQueueTimeout(t *testing.T) {
	c := New(Options{Capacity: 1, QueueLimit: 4, QueueTimeout: 20 * time.Millisecond})
	release, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	defer release()
	start := time.Now()
	if _, err := c.Acquire(context.Background()); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued Acquire err = %v, want ErrQueueTimeout", err)
	}
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Fatalf("timed out after %v, before the queue deadline", waited)
	}
	st := c.Stats()
	if st.TimedOut != 1 || st.Queued != 1 || st.Waiting != 0 {
		t.Fatalf("stats = %+v, want timed_out=1 queued=1 waiting=0", st)
	}
}

func TestContextCancelWhileQueued(t *testing.T) {
	c := New(Options{Capacity: 1, QueueLimit: 4})
	release, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := c.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued Acquire err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Cancelled != 1 || st.Waiting != 0 {
		t.Fatalf("stats = %+v, want cancelled=1 waiting=0", st)
	}
}

func TestFIFOHandoff(t *testing.T) {
	c := New(Options{Capacity: 1, QueueLimit: 8})
	release, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}

	const waiters = 4
	order := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		// Stagger enqueue so the FIFO order is deterministic.
		i := i
		wg.Add(1)
		ready := make(chan struct{})
		go func() {
			defer wg.Done()
			close(ready)
			rel, err := c.Acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			rel()
		}()
		<-ready
		// Wait until the waiter is actually queued before starting the next.
		for c.Stats().Waiting < i+1 {
			time.Sleep(time.Millisecond)
		}
	}

	release()
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("handoff order: got waiter %d, want %d", got, want)
		}
		want++
	}
}

func TestConcurrentChurn(t *testing.T) {
	c := New(Options{Capacity: 3, QueueLimit: 64, QueueTimeout: time.Second})
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := c.Acquire(context.Background())
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
			rel()
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.InFlight != 0 || st.Waiting != 0 {
		t.Fatalf("post-churn stats = %+v, want inflight=0 waiting=0", st)
	}
	if st.Admitted != 50 {
		t.Fatalf("admitted = %d, want 50", st.Admitted)
	}
}
