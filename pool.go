package tributarydelta

// The Pool is the multi-deployment host: where a Session is one
// deployment's collection loop, a Pool runs many independent deployments
// concurrently under a shared worker budget — the "many concurrent users"
// direction of the roadmap. Each deployment's epochs stay strictly ordered
// and run sequentially (a §2 epoch is a chain of level slots), but distinct
// deployments advance in parallel, so aggregate epoch throughput scales
// with cores up to the budget. A hosted deployment is either one scalar
// session (Add) or a whole QuerySet (AddSet) — multi-query deployments
// advance all their queries per round. cmd/tdserve exposes a Pool over HTTP.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// hosted is what a pool entry advances: one scalar session or a query set,
// both reporting rounds in the uniform SetRound shape.
type hosted interface {
	runEpoch(epoch int) SetRound
	sensors() int
	queries() []string
	poolStats() SessionStats
	transportErr() error
	transportHealth() FleetHealth
	close()
}

// hostedSession adapts a scalar session to the hosted contract.
type hostedSession struct{ s *Session[float64] }

func (h hostedSession) runEpoch(epoch int) SetRound {
	return SetRound{Epoch: epoch, Results: []any{h.s.RunEpoch(epoch)}}
}
func (h hostedSession) sensors() int            { return h.s.Sensors() }
func (h hostedSession) queries() []string       { return []string{h.s.QueryName()} }
func (h hostedSession) poolStats() SessionStats { return h.s.Stats() }
func (h hostedSession) transportErr() error     { return h.s.TransportErr() }
func (h hostedSession) transportHealth() FleetHealth {
	return h.s.TransportHealth()
}
func (h hostedSession) close() { h.s.Close() }

// hostedSet adapts a query set to the hosted contract.
type hostedSet struct{ qs *QuerySet }

func (h hostedSet) runEpoch(epoch int) SetRound { return h.qs.RunEpoch(epoch) }
func (h hostedSet) sensors() int                { return h.qs.d.Sensors() }
func (h hostedSet) queries() []string           { return h.qs.Names() }
func (h hostedSet) poolStats() SessionStats {
	var total SessionStats
	for _, st := range h.qs.MemberStats() {
		total.TotalWords += st.TotalWords
		total.TotalBytes += st.TotalBytes
		total.Losses += st.Losses
		total.RxFrames += st.RxFrames
		total.Duplicates += st.Duplicates
	}
	return total
}
func (h hostedSet) transportErr() error          { return h.qs.TransportErr() }
func (h hostedSet) transportHealth() FleetHealth { return h.qs.TransportHealth() }
func (h hostedSet) close()                       { h.qs.Close() }

// Pool hosts many independent deployments — scalar sessions or query sets —
// and advances them concurrently under a shared worker budget. All methods
// are safe for concurrent use. The pool owns the sessions and sets added to
// it: Remove (and Close) closes them.
//
// The budget is the host's only parallelism: at most Workers deployments
// advance at once, each running its epochs on one goroutine. Answers never
// depend on the budget or on which deployments share it.
type Pool struct {
	workers int
	sem     chan struct{}
	mu      sync.Mutex
	entries map[string]*poolEntry
	// pipelined switches RunEpochs from lock-step (return every
	// deployment's rounds together) to enqueue-and-return: each deployment
	// drains its queue independently under the shared budget and Barrier
	// collects finished rounds on demand. outstanding counts enqueued
	// rounds not yet finished; idle (on mu) signals it reaching zero.
	pipelined   bool
	outstanding int
	idle        sync.Cond
}

// poolEntry serializes access to one hosted deployment. closed marks it as
// released: a run goroutine that snapshotted the entry before a concurrent
// Remove must not touch the closed deployment.
type poolEntry struct {
	mu     sync.Mutex
	h      hosted
	next   int // next epoch number
	last   SetRound
	closed bool
	// Pipelined-mode queue state, all guarded by Pool.mu: pending rounds
	// not yet run, finished rounds awaiting Barrier, and whether a drainer
	// goroutine is currently responsible for this entry.
	pending int
	queued  []SetRound
	running bool
}

// DeploymentStatus is a point-in-time snapshot of one hosted deployment.
type DeploymentStatus struct {
	// ID is the deployment's pool identifier.
	ID string
	// Epochs is the number of collection rounds completed so far.
	Epochs int
	// Sensors is the number of participating sensors.
	Sensors int
	// Queries names the hosted queries, in registration order.
	Queries []string
	// Last is the most recent round's results (zero until the first round).
	Last SetRound
	// Stats is the deployment's cumulative communication accounting, summed
	// over its queries.
	Stats SessionStats
	// TransportErr is the deployment's delivery-backend sticky error, if any
	// — an exhausted respawn budget, an oversized frame, a socket failure.
	// Nil for the simulator and for a healthy (or recovering) fleet; see
	// Health for transient shard trouble.
	TransportErr error
	// Health is the UDP runtime's supervision snapshot — per-shard state,
	// restart counts, degraded epochs. Zero (Healthy() true) for the
	// simulator.
	Health FleetHealth
}

// NewPool returns a pool that runs at most workers deployments at once;
// workers <= 0 means GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		sem:     make(chan struct{}, workers),
		entries: make(map[string]*poolEntry),
	}
	p.idle.L = &p.mu
	return p
}

// Workers returns the pool's worker budget.
func (p *Pool) Workers() int { return p.workers }

// add registers a hosted deployment under id.
func (p *Pool) add(id string, h hosted) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.entries[id]; ok {
		return fmt.Errorf("tributarydelta: pool: deployment %q already exists", id)
	}
	p.entries[id] = &poolEntry{h: h}
	return nil
}

// Add registers scalar session s under id. The pool takes ownership of the
// session; it is an error to keep running it directly.
func (p *Pool) Add(id string, s *Session[float64]) error {
	if s == nil {
		return fmt.Errorf("tributarydelta: pool: nil session")
	}
	return p.add(id, hostedSession{s: s})
}

// AddSet registers query set qs under id — a multi-query deployment whose
// rounds advance every member in lock-step. The pool takes ownership.
func (p *Pool) AddSet(id string, qs *QuerySet) error {
	if qs == nil {
		return fmt.Errorf("tributarydelta: pool: nil query set")
	}
	return p.add(id, hostedSet{qs: qs})
}

// Remove unregisters and closes the deployment; it reports whether id was
// present. It blocks until any in-flight rounds of that deployment finish.
func (p *Pool) Remove(id string) bool {
	p.mu.Lock()
	e, ok := p.entries[id]
	delete(p.entries, id)
	p.mu.Unlock()
	if !ok {
		return false
	}
	e.mu.Lock() // wait out an in-flight run
	e.closed = true
	e.h.close()
	e.mu.Unlock()
	return true
}

// IDs returns the registered deployment ids, sorted.
func (p *Pool) IDs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]string, 0, len(p.entries))
	for id := range p.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Len returns the number of hosted deployments.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Status reports a snapshot of one deployment.
func (p *Pool) Status(id string) (DeploymentStatus, bool) {
	p.mu.Lock()
	e, ok := p.entries[id]
	p.mu.Unlock()
	if !ok {
		return DeploymentStatus{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return DeploymentStatus{
		ID:           id,
		Epochs:       e.next,
		Sensors:      e.h.sensors(),
		Queries:      e.h.queries(),
		Last:         e.last,
		Stats:        e.h.poolStats(),
		TransportErr: e.h.transportErr(),
		Health:       e.h.transportHealth(),
	}, true
}

// runLocked advances one deployment by rounds epochs. Caller holds e.mu.
func (e *poolEntry) runLocked(rounds int) []SetRound {
	out := make([]SetRound, 0, rounds)
	for i := 0; i < rounds; i++ {
		res := e.h.runEpoch(e.next)
		e.next++
		e.last = res
		out = append(out, res)
	}
	return out
}

// RunDeployment advances one deployment by rounds epochs (continuing from
// its last round) under the worker budget and returns the per-round
// results: one result per round for a scalar deployment, one per member
// per round for a query set.
func (p *Pool) RunDeployment(id string, rounds int) ([]SetRound, error) {
	out, _, err := p.RunRounds(id, rounds)
	return out, err
}

// RunRounds is RunDeployment also returning the query names the round
// results are labeled with, read under the same entry lock — so a
// concurrent remove-and-recreate of the id cannot mislabel the results.
func (p *Pool) RunRounds(id string, rounds int) ([]SetRound, []string, error) {
	p.mu.Lock()
	e, ok := p.entries[id]
	p.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("tributarydelta: pool: no deployment %q", id)
	}
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, nil, fmt.Errorf("tributarydelta: pool: deployment %q was removed", id)
	}
	return e.runLocked(rounds), e.h.queries(), nil
}

// RunEpochs advances every hosted deployment by rounds epochs. In the
// default lock-step mode it runs deployments concurrently under the worker
// budget, waits for all of them, and returns the per-deployment results. In
// pipelined mode (SetPipelined) it only enqueues the rounds and returns nil
// immediately: each deployment drains its own queue independently — a slow
// deployment never holds up the rest — and Barrier collects the finished
// rounds. Either way each deployment's rounds execute in epoch order; only
// distinct deployments overlap, so per-deployment answer sequences are
// bit-identical across both modes.
func (p *Pool) RunEpochs(rounds int) map[string][]SetRound {
	p.mu.Lock()
	if p.pipelined {
		if rounds > 0 {
			for _, e := range p.entries {
				e.pending += rounds
				p.outstanding += rounds
				if !e.running {
					e.running = true
					go p.drain(e)
				}
			}
		}
		p.mu.Unlock()
		return nil
	}
	snapshot := make(map[string]*poolEntry, len(p.entries))
	for id, e := range p.entries {
		snapshot[id] = e
	}
	p.mu.Unlock()

	results := make(map[string][]SetRound, len(snapshot))
	var rmu sync.Mutex
	var wg sync.WaitGroup
	for id, e := range snapshot {
		wg.Add(1)
		go func(id string, e *poolEntry) {
			defer wg.Done()
			p.sem <- struct{}{}
			defer func() { <-p.sem }()
			e.mu.Lock()
			if e.closed { // removed after the snapshot
				e.mu.Unlock()
				return
			}
			out := e.runLocked(rounds)
			e.mu.Unlock()
			rmu.Lock()
			results[id] = out
			rmu.Unlock()
		}(id, e)
	}
	wg.Wait()
	return results
}

// drain is a pipelined deployment's worker loop: take one queued round at a
// time under the shared budget, run it, and bank the result for Barrier.
// Exactly one drainer runs per entry (per-deployment epochs stay strictly
// ordered); it retires when the queue empties or the deployment is removed.
func (p *Pool) drain(e *poolEntry) {
	for {
		p.mu.Lock()
		if e.pending == 0 {
			e.running = false
			p.mu.Unlock()
			return
		}
		e.pending--
		p.mu.Unlock()

		p.sem <- struct{}{}
		e.mu.Lock()
		if e.closed { // removed mid-queue: drop this and all remaining rounds
			e.mu.Unlock()
			<-p.sem
			p.mu.Lock()
			dropped := e.pending + 1
			e.pending = 0
			e.running = false
			p.outstanding -= dropped
			if p.outstanding == 0 {
				p.idle.Broadcast()
			}
			p.mu.Unlock()
			return
		}
		out := e.runLocked(1)
		e.mu.Unlock()
		<-p.sem

		p.mu.Lock()
		e.queued = append(e.queued, out...)
		p.outstanding--
		if p.outstanding == 0 {
			p.idle.Broadcast()
		}
		p.mu.Unlock()
	}
}

// collectLocked hands over every entry's banked pipelined rounds. Caller
// holds p.mu. Rounds banked by a deployment removed before collection are
// gone with it.
func (p *Pool) collectLocked() map[string][]SetRound {
	results := make(map[string][]SetRound, len(p.entries))
	for id, e := range p.entries {
		if len(e.queued) > 0 {
			results[id] = e.queued
			e.queued = nil
		}
	}
	return results
}

// Barrier waits until every round enqueued in pipelined mode has finished
// and returns the per-deployment results banked since the last collection
// (Barrier or SetPipelined(false)) — the on-demand lock-step snapshot: after
// it returns, every deployment sits at a quiescent epoch boundary. In
// lock-step mode with nothing outstanding it returns an empty map.
func (p *Pool) Barrier() map[string][]SetRound {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.outstanding > 0 {
		p.idle.Wait()
	}
	return p.collectLocked()
}

// SetPipelined switches RunEpochs between lock-step (off, the default) and
// pipelined enqueue-and-return (on). Turning pipelining off first drains the
// queues and returns the banked rounds, exactly like a final Barrier —
// toggling is safe mid-run. Turning it on returns nil.
func (p *Pool) SetPipelined(on bool) map[string][]SetRound {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pipelined = on
	if on {
		return nil
	}
	for p.outstanding > 0 {
		p.idle.Wait()
	}
	return p.collectLocked()
}

// Close removes and closes every hosted deployment.
func (p *Pool) Close() {
	for _, id := range p.IDs() {
		p.Remove(id)
	}
}
