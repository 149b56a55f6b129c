package network

import (
	"sync"
	"testing"
)

// TestStatsConcurrentHammer drives the accounting under its documented
// concurrency contract: one transmit writer recording sends, losses and
// epoch-boundary Publishes, while many receiver goroutines record
// receive-side counters and many readers take Snapshots and receive-side
// sums mid-flight. Under `go test -race` this proves the lock-free split is
// data-race free; the post-join assertions prove no increment was lost.
func TestStatsConcurrentHammer(t *testing.T) {
	const (
		nodes      = 8
		goroutines = 16
		iters      = 500
	)
	s := NewStats(nodes)
	var wg sync.WaitGroup

	// The single transmit writer — the role of the runner's dispatch
	// goroutine — interleaving recording with Publishes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < goroutines*iters; i++ {
			s.AddTxBytes(i%nodes, i%5, 9)
			s.AddLoss(i % nodes)
			if i%100 == 0 {
				s.Publish()
			}
		}
		s.Publish()
	}()

	// Concurrent receiver runtimes and mid-flight readers.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := g % nodes
			for i := 0; i < iters; i++ {
				s.AddDuplicates(v, 1)
				s.AddRx(v, 1, 9)
				if i%50 == 0 {
					// Mid-flight reads race the writers; they only need
					// to be consistent, not exact.
					snap := s.Snapshot()
					if snap.Bytes < 0 || snap.Losses < 0 {
						t.Error("snapshot went negative")
					}
					_ = s.TotalDuplicates()
					_ = s.TotalRxFrames()
				}
			}
		}(g)
	}
	wg.Wait()

	const total = goroutines * iters
	if got := s.TotalBytes(); got != total*9 {
		t.Fatalf("TotalBytes = %d, want %d", got, total*9)
	}
	if got := s.TotalLosses(); got != total {
		t.Fatalf("TotalLosses = %d, want %d", got, total)
	}
	if got := s.TotalDuplicates(); got != total {
		t.Fatalf("TotalDuplicates = %d, want %d", got, total)
	}
	if got := s.TotalRxFrames(); got != total {
		t.Fatalf("TotalRxFrames = %d, want %d", got, total)
	}
	// After the final Publish, the snapshot is exact.
	snap := s.Snapshot()
	if snap.Bytes != total*9 || snap.Losses != total || snap.Duplicates != total || snap.RxFrames != total {
		t.Fatalf("final snapshot = %+v", snap)
	}
	var tx int64
	for _, c := range s.Transmissions {
		tx += c
	}
	if tx != total {
		t.Fatalf("transmissions = %d, want %d", tx, total)
	}
	var lvl int64
	for _, b := range s.LevelBytes {
		lvl += b
	}
	if lvl != total*9 {
		t.Fatalf("level bytes = %d, want %d", lvl, total*9)
	}
}
