package wal

import (
	"fmt"
	"sync"
	"testing"
)

// TestGroupCommitBatches verifies that concurrent committers going through
// Sync actually share fsyncs, at two committers as well as at eight: the
// number of syncs must be well below the number of commits.
func TestGroupCommitBatches(t *testing.T) {
	for _, workers := range []int{2, 8} {
		t.Run(fmt.Sprintf("%d committers", workers), func(t *testing.T) {
			w, _, _ := openTestWAL(t)
			defer w.Close()
			const per = 200
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						w.Append(Record{Txn: uint64(i + 1), Type: RecCommit})
						if err := w.Sync(); err != nil {
							t.Error(err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			commits := workers * per
			syncs := w.Syncs.Load()
			t.Logf("commits=%d syncs=%d batch=%.1f", commits, syncs, float64(commits)/float64(syncs))
			if syncs*4 > uint64(commits)*3 {
				t.Fatalf("no batching: %d syncs for %d commits", syncs, commits)
			}
		})
	}
}
