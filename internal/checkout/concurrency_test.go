package checkout

import (
	"errors"
	"sync"
	"testing"
)

// Checkout runs the holder check and the record insert in one transaction
// that holds X on the object, so two checkouts of one object conflict.
func TestCheckoutRaceHasOneWinner(t *testing.T) {
	w := newWorld(t)
	users := [2]string{"alice", "bob"}
	for trial := 0; trial < 200; trial++ {
		var errs [2]error
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i, user := range users {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[i] = w.cm.Checkout(user, w.oid)
			}()
		}
		close(start)
		wg.Wait()
		var winners []string
		for i, err := range errs {
			switch {
			case err == nil:
				winners = append(winners, users[i])
			case !errors.Is(err, ErrCheckedOut):
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if len(winners) != 1 {
			t.Fatalf("trial %d: winners %v, want exactly one", trial, winners)
		}
		if holder, err := w.cm.Holder(w.oid); err != nil || holder != winners[0] {
			t.Fatalf("trial %d: holder %q, %v; want %q", trial, holder, err, winners[0])
		}
		if err := w.cm.Cancel(winners[0], w.oid); err != nil {
			t.Fatal(err)
		}
	}
}
