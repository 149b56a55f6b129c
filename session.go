package tributarydelta

// The generic session: every query opened with Open — scalar or structured,
// standalone or a QuerySet member — runs collection rounds through the same
// Session[R], parameterized only by its answer type. The old per-aggregate
// session types survive as thin deprecated shims over this one.

import (
	"context"
	"sync"
	"sync/atomic"
)

// Result is one collection round's outcome for a query answering R.
type Result[R any] struct {
	// Epoch is the round number.
	Epoch int
	// Answer is the base station's result.
	Answer R
	// TrueContrib is the exact number of sensors represented in Answer.
	TrueContrib int
	// EstContrib is the base station's own (approximate) contribution count.
	EstContrib float64
	// DeltaSize is the current size of the multi-path delta region.
	DeltaSize int
}

// SessionStats is a point-in-time snapshot of a session's cumulative
// communication accounting, all measured from real encoded frames.
type SessionStats struct {
	// TotalWords is the 32-bit payload words transmitted so far.
	TotalWords int64
	// TotalBytes is the encoded payload bytes underneath TotalWords.
	TotalBytes int64
	// Losses counts delivery attempts that did not reach their receiver.
	Losses int64
	// InboxDrops counts frames that survived the medium but overflowed a
	// bounded node inbox (concurrent runtime only; a subset of Losses).
	InboxDrops int64
	// RxFrames counts frames processed by receiver runtimes (populated by
	// the concurrent runtime; the synchronous simulator hands frames over
	// without a receive loop).
	RxFrames int64
	// Duplicates counts duplicated frames discarded by receiver runtimes
	// before processing (UDP runtime only — the in-process backends cannot
	// duplicate; never part of RxFrames). Frame-denominated: a replayed
	// batch datagram counts one duplicate per frame it carried.
	Duplicates int64
}

// engine erases the runner's generic parameters behind the session.
type engine[R any] interface {
	runEpoch(epoch int) Result[R]
	exact(epoch int) R
	sensors() int
	deltaSize() int
	stats() SessionStats
}

// Session runs collection rounds of one query over a deployment and reports
// per-epoch answers, contribution counts and energy statistics.
//
// A session is single-threaded: calls that advance it (RunEpoch, Run,
// RunInto, Stream) must not overlap, and while a Stream is live the stream
// goroutine owns the session. Close is the one exception — it may be called
// from any goroutine at any time, including mid-run.
//
// Close contract: Close marks the session closed, waits for live streams
// and in-flight rounds to wind down (it never interrupts an epoch mid-
// flight), then releases the concurrent runtime (when the session owns
// one). A closed session stops cleanly rather than failing: Run/RunInto
// return the rounds completed so far, Stream's channel closes, and RunEpoch
// returns a zero Result carrying only the epoch number. Close is idempotent.
type Session[R any] struct {
	eng  engine[R]
	name string
	deps *Deployment
	stop func()
	// trErr reports the delivery backend's sticky error, when the backend
	// has one (the UDP runtime); nil otherwise. health is the matching
	// supervision snapshot hook.
	trErr  func() error
	health func() FleetHealth

	closed atomic.Bool
	mu     sync.Mutex // guards the Close / run-registration handshake
	done   chan struct{}
	// active counts live streams and in-flight rounds; Close waits it out
	// before releasing the runtime, so no epoch ever runs over a closed
	// transport.
	active sync.WaitGroup
}

// beginRun registers an advancing call (a round or a stream); it reports
// false — and registers nothing — once the session is closed.
func (s *Session[R]) beginRun() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.active.Add(1)
	return true
}

// RunEpoch executes one collection round. On a closed session it is a no-op
// returning a zero Result with only Epoch set.
func (s *Session[R]) RunEpoch(epoch int) Result[R] {
	if !s.beginRun() {
		return Result[R]{Epoch: epoch}
	}
	defer s.active.Done()
	return s.eng.runEpoch(epoch)
}

// Run executes rounds collection rounds starting at startEpoch, stopping
// early (with the rounds completed so far) if the session is closed mid-run.
// Run allocates a fresh result slice per call; RunInto is the reusable-
// buffer form.
func (s *Session[R]) Run(startEpoch, rounds int) []Result[R] {
	return s.RunInto(make([]Result[R], 0, rounds), startEpoch, rounds)
}

// RunInto is Run appending into dst — allocation-free when dst has capacity
// for rounds more results. Like Run it stops early once the session is
// closed, returning the results accumulated so far.
func (s *Session[R]) RunInto(dst []Result[R], startEpoch, rounds int) []Result[R] {
	if !s.beginRun() {
		return dst
	}
	defer s.active.Done()
	for e := 0; e < rounds; e++ {
		if s.closed.Load() {
			break
		}
		dst = append(dst, s.eng.runEpoch(startEpoch+e))
	}
	return dst
}

// Stream runs rounds collection rounds starting at startEpoch on a new
// goroutine, delivering each result on the returned channel. The channel is
// unbuffered — the producer paces to the consumer — and closes when the
// rounds are done, the context is cancelled, or the session is closed. The
// stream goroutine owns the session until the channel closes; Close blocks
// until the stream notices and stops (it never interrupts an epoch mid-
// flight).
func (s *Session[R]) Stream(ctx context.Context, startEpoch, rounds int) <-chan Result[R] {
	out := make(chan Result[R])
	if !s.beginRun() {
		close(out)
		return out
	}
	go func() {
		defer s.active.Done()
		defer close(out)
		for e := 0; e < rounds; e++ {
			if s.closed.Load() || ctx.Err() != nil {
				return
			}
			res := s.eng.runEpoch(startEpoch + e)
			select {
			case out <- res:
			case <-ctx.Done():
				return
			case <-s.done:
				return
			}
		}
	}()
	return out
}

// Close releases resources owned by the session — the concurrent runtime's
// node goroutines when the session owns one (QuerySet members share their
// set's runtime, released by QuerySet.Close). It waits for live Stream
// goroutines and in-flight rounds to stop, is safe to call from any
// goroutine and is idempotent. See the Session type docs for the full
// contract.
func (s *Session[R]) Close() {
	s.mu.Lock()
	if s.closed.Swap(true) {
		s.mu.Unlock()
		return
	}
	close(s.done)
	s.mu.Unlock()
	s.active.Wait()
	if s.stop != nil {
		s.stop()
		s.stop = nil
	}
}

// ExactAnswer computes the ground-truth answer for an epoch.
func (s *Session[R]) ExactAnswer(epoch int) R { return s.eng.exact(epoch) }

// Sensors returns the number of participating sensors.
func (s *Session[R]) Sensors() int { return s.eng.sensors() }

// DeltaSize returns the current delta region size.
func (s *Session[R]) DeltaSize() int { return s.eng.deltaSize() }

// QueryName returns the descriptor name of the query the session runs
// ("Count", "Quantiles", …).
func (s *Session[R]) QueryName() string { return s.name }

// Stats returns a snapshot of the session's cumulative communication
// accounting.
func (s *Session[R]) Stats() SessionStats { return s.eng.stats() }

// TransportErr reports the session's delivery-backend sticky error. Under
// the supervised UDP runtime only permanent failures stick: an oversized
// frame, a socket failure, or a shard whose respawn budget is exhausted. A
// non-nil error means some deliveries were force-counted as losses while
// answers kept being produced. Recovered shard deaths do NOT surface here —
// see TransportHealth. In-process backends never fail; for them (and for
// the simulator) TransportErr is always nil.
func (s *Session[R]) TransportErr() error {
	if s.trErr == nil {
		return nil
	}
	return s.trErr()
}

// TransportHealth reports the UDP runtime's supervision snapshot: per-shard
// state (healthy/respawning/failed), restart counts and the epochs each
// shard spent degraded. For the in-process backends and the simulator it
// returns a zero snapshot, whose Healthy() is true.
func (s *Session[R]) TransportHealth() FleetHealth {
	if s.health == nil {
		return FleetHealth{}
	}
	return s.health()
}

// TotalWords returns the total 32-bit payload words transmitted so far. It
// is the Stats().TotalWords shorthand kept for the original facade surface.
func (s *Session[R]) TotalWords() int64 { return s.eng.stats().TotalWords }

// TotalBytes returns the total encoded payload bytes transmitted so far. It
// is the Stats().TotalBytes shorthand kept for the original facade surface.
func (s *Session[R]) TotalBytes() int64 { return s.eng.stats().TotalBytes }

// boxedEpoch advances the session one round for its QuerySet, boxing the
// typed result (nil when the member was individually closed).
func (s *Session[R]) boxedEpoch(epoch int) any {
	if !s.beginRun() {
		return nil
	}
	defer s.active.Done()
	return s.eng.runEpoch(epoch)
}

// queryName implements setMember.
func (s *Session[R]) queryName() string { return s.name }

// closeMember implements setMember.
func (s *Session[R]) closeMember() { s.Close() }

// memberStats implements setMember.
func (s *Session[R]) memberStats() SessionStats { return s.eng.stats() }
