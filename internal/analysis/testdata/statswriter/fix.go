// Package statsclient exercises the statswriter analyzer from outside the
// single-writer dispatch packages: plain writes to the transmit counters
// and atomics aimed at them are reported; reads, and the receive-side
// counters that are atomic by contract, are not.
package statsclient

import (
	"sync/atomic"

	"tributarydelta/internal/network"
)

// Record mutates transmit counters from outside the dispatch packages —
// every line races the single writer.
func Record(st *network.Stats, level int) {
	st.Transmissions[level]++             // want "write to network\.Stats\.Transmissions"
	st.Words[level] += 3                  // want "write to network\.Stats\.Words"
	st.Bytes[level] = 48                  // want "write to network\.Stats\.Bytes"
	atomic.AddInt64(&st.Losses[level], 1) // want "atomic\.AddInt64 on network\.Stats\.Losses"
}

// Observe only reads the transmit side and uses atomics on the
// receive-side counters, which are atomic by contract — nothing reported.
func Observe(st *network.Stats, level int) int64 {
	atomic.AddInt64(&st.RxFrames[level], 1)
	return st.Transmissions[level] + atomic.LoadInt64(&st.Duplicates[level])
}
