// Package leaktest is the shared goroutine-leak check for tests whose code
// under test starts goroutines or must unwind cleanly after an error or a
// cancellation (the fixpoint loop, xqd's request handling): teardown can
// be asynchronous, so the check polls for the count to return to its
// pre-test baseline instead of sampling once. It lives in its own package
// so production code never links the testing machinery.
package leaktest

import (
	"runtime"
	"testing"
	"time"
)

// Wait fails the test if the goroutine count has not returned to (at or
// below) the baseline within the deadline: no goroutine may outlive the
// operation that spawned it.
func Wait(t testing.TB, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
