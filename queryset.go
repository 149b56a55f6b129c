package tributarydelta

// QuerySet is the multi-query answer to the roadmap's "many simultaneous
// aggregate queries over one field": N queries registered on one deployment
// advance in lock-step rounds sharing a single network — one loss
// realization per epoch, one shared epoch numbering — so their answers
// differ only by aggregate, never by network luck. Under the UDP runtime
// the set also shares one shard fleet through a runner-layer multiplexer
// that keeps per-query Stats separate.

import (
	"context"
	"fmt"
	"sync"

	"tributarydelta/internal/network"
	"tributarydelta/internal/runner"
	"tributarydelta/internal/transport"
)

// SetRound is one lock-step round of a QuerySet: the epoch and every
// member's result in registration order.
type SetRound struct {
	// Epoch is the round number shared by all members.
	Epoch int
	// Results holds member i's typed Result[R] boxed as any (nil when that
	// member was individually closed before the round). Type-assert with the
	// member's answer type, e.g. r.Results[0].(Result[float64]).
	Results []any
}

// setMember is the type-erased view of a member session.
type setMember interface {
	boxedEpoch(epoch int) any
	queryName() string
	closeMember()
	memberStats() SessionStats
}

// QuerySet advances N queries over one deployment in lock-step. Create one
// with Deployment.NewQuerySet, add members by passing InSet to Open, then
// drive rounds with RunEpoch, Run or Stream. All members of a round see the
// same loss realization: the set owns a single network (and, when the
// deployment runs the UDP runtime, a single shared shard fleet), so
// frame fate for a given (epoch, sender, receiver, attempt) is identical
// across members.
//
// Like a Session, a QuerySet is single-threaded in its advancing calls;
// Close may be called from any goroutine and stops Stream cleanly. Member
// sessions are advanced by the set — their own RunEpoch/Run/Stream still
// work but advance that member alone, off the shared epoch numbering.
type QuerySet struct {
	d    *Deployment
	seed uint64
	net  *network.Net
	mux  *runner.Mux
	stop func()
	// initErr holds a failed shared-runtime construction (the UDP fleet not
	// coming up); it is surfaced by every subsequent Open(InSet(...)).
	initErr error
	// trErr reports the shared backend's sticky runtime error, when the
	// backend has one (the UDP runtime); nil otherwise. trHealth is the
	// matching supervision snapshot hook.
	trErr    func() error
	trHealth func() FleetHealth

	mu      sync.Mutex
	members []setMember
	closed  bool
	done    chan struct{}
	// active counts live streams and in-flight rounds; Close waits it out
	// before releasing members and the shared runtime.
	active sync.WaitGroup
}

// NewQuerySet creates an empty query set over the deployment with the given
// seed: the seed fixes the set's shared loss realization and is the default
// seed of every member opened without WithSeed. The deployment's failure
// model and runtime selection are pinned at creation time. Release the set
// — its members and, under the UDP runtime, the shared shard fleet — with
// Close.
func (d *Deployment) NewQuerySet(seed uint64) *QuerySet {
	qs := &QuerySet{
		d:    d,
		seed: seed,
		net:  network.New(d.scenario.Graph, d.model, seed),
		done: make(chan struct{}),
	}
	if d.udpShards > 0 {
		u, err := transport.NewUDP(qs.net, transport.UDPOptions{
			Shards: d.udpShards, Spawn: d.udpSpawner(),
		})
		if err != nil {
			qs.initErr = fmt.Errorf("tributarydelta: udp runtime: %w", err)
			return qs
		}
		qs.mux = runner.NewMux(u)
		qs.stop = u.Close
		qs.trErr = u.Err
		qs.trHealth = u.Health
	}
	return qs
}

// port returns a member's transport view: a per-member port of the shared
// UDP fleet, or nil when members simulate locally (the simulator
// is a pure function of the shared seed, so the loss realization is shared
// with no coordination).
func (qs *QuerySet) port(stats *network.Stats) runner.Transport {
	if qs.mux == nil {
		return nil
	}
	return qs.mux.Port(stats)
}

// register appends a newly opened member session.
func (qs *QuerySet) register(m setMember) error {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if qs.initErr != nil {
		return qs.initErr
	}
	if qs.closed {
		return errClosedSet
	}
	qs.members = append(qs.members, m)
	return nil
}

// transportErr reports the shared backend's sticky error (member sessions
// delegate their TransportErr here).
func (qs *QuerySet) transportErr() error {
	if qs.trErr == nil {
		return nil
	}
	return qs.trErr()
}

// transportHealth reports the shared backend's supervision snapshot (member
// sessions delegate their TransportHealth here).
func (qs *QuerySet) transportHealth() FleetHealth {
	if qs.trHealth == nil {
		return FleetHealth{}
	}
	return qs.trHealth()
}

// TransportErr reports the shared delivery backend's sticky error — non-nil
// only for permanent failures (oversized frame, socket failure, a shard
// whose respawn budget is exhausted), in which case some deliveries were
// force-counted as losses while rounds kept completing. Recovered shard
// deaths surface in TransportHealth instead. Always nil for the simulator.
func (qs *QuerySet) TransportErr() error { return qs.transportErr() }

// TransportHealth reports the shared UDP runtime's supervision snapshot:
// per-shard state, restart counts and degraded epochs. A zero snapshot
// (Healthy() true) for the simulator.
func (qs *QuerySet) TransportHealth() FleetHealth { return qs.transportHealth() }

// errClosedSet is returned by Open(InSet(...)) on a closed set.
var errClosedSet = errString("query set is closed")

// errString is a trivial constant-friendly error type.
type errString string

// Error implements error.
func (e errString) Error() string { return string(e) }

// Len returns the number of member sessions.
func (qs *QuerySet) Len() int {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return len(qs.members)
}

// Names returns each member's query descriptor name, in registration order.
func (qs *QuerySet) Names() []string {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	out := make([]string, len(qs.members))
	for i, m := range qs.members {
		out[i] = m.queryName()
	}
	return out
}

// MemberStats returns each member's communication accounting snapshot, in
// registration order — the per-query separation the set's multiplexer
// maintains over the shared runtime.
func (qs *QuerySet) MemberStats() []SessionStats {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	out := make([]SessionStats, len(qs.members))
	for i, m := range qs.members {
		out[i] = m.memberStats()
	}
	return out
}

// runRound executes one lock-step round over a snapshot of the members,
// registered against Close so the shared runtime is never released under an
// in-flight epoch. It reports false — with an empty round — once the set is
// closed.
func (qs *QuerySet) runRound(epoch int) (SetRound, bool) {
	qs.mu.Lock()
	if qs.closed {
		qs.mu.Unlock()
		return SetRound{Epoch: epoch}, false
	}
	qs.active.Add(1)
	members := append([]setMember(nil), qs.members...)
	qs.mu.Unlock()
	defer qs.active.Done()
	round := SetRound{Epoch: epoch, Results: make([]any, len(members))}
	for i, m := range members {
		round.Results[i] = m.boxedEpoch(epoch)
	}
	return round, true
}

// RunEpoch executes one lock-step round: every member runs the given epoch,
// in registration order, against the shared loss realization. On a closed
// set it returns a round with no results.
func (qs *QuerySet) RunEpoch(epoch int) SetRound {
	round, _ := qs.runRound(epoch)
	return round
}

// Run executes rounds lock-step rounds starting at startEpoch, stopping
// early if the set is closed mid-run.
func (qs *QuerySet) Run(startEpoch, rounds int) []SetRound {
	out := make([]SetRound, 0, rounds)
	for e := 0; e < rounds; e++ {
		round, ok := qs.runRound(startEpoch + e)
		if !ok {
			break
		}
		out = append(out, round)
	}
	return out
}

// Stream runs rounds lock-step rounds starting at startEpoch on a new
// goroutine, delivering each SetRound on the returned channel. The channel
// is unbuffered and closes when the rounds are done, the context is
// cancelled, or the set is closed; the stream goroutine owns the set (and
// its members) until then. See Session.Stream for the pacing contract.
func (qs *QuerySet) Stream(ctx context.Context, startEpoch, rounds int) <-chan SetRound {
	out := make(chan SetRound)
	qs.mu.Lock()
	if qs.closed {
		qs.mu.Unlock()
		close(out)
		return out
	}
	qs.active.Add(1)
	qs.mu.Unlock()
	go func() {
		defer qs.active.Done()
		defer close(out)
		for e := 0; e < rounds; e++ {
			if ctx.Err() != nil {
				return
			}
			round, ok := qs.runRound(startEpoch + e)
			if !ok {
				return
			}
			select {
			case out <- round:
			case <-ctx.Done():
				return
			case <-qs.done:
				return
			}
		}
	}()
	return out
}

// Close closes every member session and, under the UDP runtime, the shared
// shard fleet. It waits for live streams and in-flight rounds to
// stop (never interrupting an epoch mid-flight), is safe to call from any
// goroutine and is idempotent.
func (qs *QuerySet) Close() {
	qs.mu.Lock()
	if qs.closed {
		qs.mu.Unlock()
		return
	}
	qs.closed = true
	close(qs.done)
	members := append([]setMember(nil), qs.members...)
	qs.mu.Unlock()
	qs.active.Wait()
	for _, m := range members {
		m.closeMember()
	}
	if qs.stop != nil {
		qs.stop()
		qs.stop = nil
	}
}
