// Package chaos injects deterministic, seeded faults into a UDP transport
// fleet: link noise (datagram drop/duplicate/reorder), shard kills, control-
// channel stalls, data-plane blackholes and partition-then-heal windows —
// all declared as data in a Schedule and applied at epoch boundaries by a
// Driver.
//
// The driver interposes on the transport's two seams. WrapSpawner wraps the
// UDPOptions.Spawn hook, recording every shard runtime it launches (so
// KillShard faults can SIGKILL the current one — including supervisor-
// respawned replacements) and routing the control channel through a
// per-shard TCP proxy whose byte flow a StallControl fault can freeze.
// AddrRewrite plugs into UDPOptions.AddrRewrite, routing the data plane
// through a per-shard UDP proxy that rolls one seeded RNG draw per
// datagram for drop/duplicate/reorder and gates everything behind a
// blackhole switch.
//
// Determinism: which datagram is dropped is a pure function of
// (Schedule.Seed, shard, arrival order), and which fault fires at which
// epoch is data. What is NOT deterministic is the wall-clock interleaving
// of recovery — respawn backoff and barrier timeouts are real timers — so
// chaos runs pin convergence properties (the fleet heals, accounting
// balances), not golden answers. The deterministic golden matrix runs with
// chaos schedules off.
//
// Typical wiring:
//
//	drv, err := chaos.New(sched, shards)
//	u, err := transport.NewUDP(nw, transport.UDPOptions{
//		Shards:      shards,
//		Spawn:       drv.WrapSpawner(transport.SpawnInProcess),
//		AddrRewrite: drv.AddrRewrite,
//	})
//	for e := 0; e < epochs; e++ {
//		drv.Advance(e) // fire faults due at this boundary
//		r.RunEpoch(e)
//	}
package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"tributarydelta/internal/transport"
)

// FaultKind names one fault type in a Schedule.
type FaultKind string

const (
	// KillShard SIGKILLs the shard's current runtime at the epoch boundary
	// — the transport's supervisor is expected to respawn it.
	KillShard FaultKind = "kill-shard"
	// StallControl freezes the shard's control channel (both directions)
	// for Epochs epochs: flush and done frames stop flowing, exercising
	// the barrier's per-attempt retries and, if the stall outlasts
	// BarrierTimeout, the declare-dead path.
	StallControl FaultKind = "stall-control"
	// BlackholeShard silently drops every data-plane datagram bound for
	// the shard for Epochs epochs; the control channel stays up, so the
	// shard reports the traffic missing at each barrier.
	BlackholeShard FaultKind = "blackhole"
	// Partition blackholes every shard in Shards for Epochs epochs, then
	// heals them all at once.
	Partition FaultKind = "partition"
)

// Fault is one scheduled fault.
type Fault struct {
	// Epoch is the boundary the fault fires at: it takes effect for the
	// epoch of the Advance(Epoch) call and — for windowed kinds — the
	// following Epochs-1 epochs.
	Epoch int
	// Kind selects the fault type.
	Kind FaultKind
	// Shard is the target shard (KillShard, StallControl, BlackholeShard).
	Shard int
	// Shards is the target set (Partition).
	Shards []int
	// Epochs is the window length for windowed kinds; 0 means 1.
	Epochs int
}

// Schedule is a complete fault-injection plan: background link noise plus
// scheduled faults. The zero value is a no-op schedule.
type Schedule struct {
	// Seed seeds the per-shard link-noise RNGs; the same (Seed, schedule,
	// traffic) triple picks the same datagrams to drop every run.
	Seed int64
	// Drop, Dup and Reorder are per-datagram probabilities in [0, 1)
	// applied to every data-plane datagram of every shard (one RNG draw
	// per datagram, first match wins, in this order).
	Drop, Dup, Reorder float64
	// ReorderDelay is how long a reordered datagram is held if no
	// successor displaces it first; 0 means 2ms. Keep it far inside the
	// shard's 25ms flush wait, so a held datagram lands before the barrier
	// reports it missing instead of arriving as a late duplicate of its
	// retransmission.
	ReorderDelay time.Duration
	// Faults are the scheduled faults, in any order; the driver sorts them
	// by epoch.
	Faults []Fault
}

// Validate checks the schedule against a fleet of the given shard count.
func (s Schedule) Validate(shards int) error {
	if shards <= 0 {
		return fmt.Errorf("chaos: shard count %d", shards)
	}
	for _, p := range [3]float64{s.Drop, s.Dup, s.Reorder} {
		if p < 0 || p >= 1 {
			return fmt.Errorf("chaos: probability %v outside [0, 1)", p)
		}
	}
	if s.Drop+s.Dup+s.Reorder >= 1 {
		return fmt.Errorf("chaos: drop+dup+reorder %v >= 1 leaves no clean deliveries", s.Drop+s.Dup+s.Reorder)
	}
	for i, f := range s.Faults {
		if f.Epoch < 0 {
			return fmt.Errorf("chaos: fault %d: epoch %d", i, f.Epoch)
		}
		if f.Epochs < 0 {
			return fmt.Errorf("chaos: fault %d: window %d epochs", i, f.Epochs)
		}
		switch f.Kind {
		case KillShard, StallControl, BlackholeShard:
			if f.Shard < 0 || f.Shard >= shards {
				return fmt.Errorf("chaos: fault %d: shard %d outside fleet of %d", i, f.Shard, shards)
			}
		case Partition:
			if len(f.Shards) == 0 {
				return fmt.Errorf("chaos: fault %d: partition with no shards", i)
			}
			for _, sh := range f.Shards {
				if sh < 0 || sh >= shards {
					return fmt.Errorf("chaos: fault %d: shard %d outside fleet of %d", i, sh, shards)
				}
			}
		default:
			return fmt.Errorf("chaos: fault %d: unknown kind %q", i, f.Kind)
		}
	}
	return nil
}

// Counters is a frame-denominated snapshot of what the link-noise proxies
// did — the ground truth the transport's loss/duplicate accounting is
// checked against. A dropped batch datagram counts once per frame it
// carried, matching the transport's Lost/Duplicates denomination.
type Counters struct {
	// Dropped counts frames the noise model dropped.
	Dropped int64
	// Dupped counts frames delivered twice.
	Dupped int64
	// Reordered counts datagrams (not frames) held for reordering.
	Reordered int64
	// Blackholed counts frames swallowed by blackhole/partition windows.
	Blackholed int64
}

// activeWindow is one windowed fault currently in effect.
type activeWindow struct {
	fault Fault
	until int // first epoch no longer affected
}

// Driver applies a Schedule to one transport fleet. Create with New, wire
// WrapSpawner and AddrRewrite into UDPOptions, call Advance at each epoch
// boundary (before the epoch runs), and Close when the run is over. All
// methods are safe for concurrent use — the transport's supervisor calls
// the wrapped spawner and AddrRewrite from its own goroutines.
type Driver struct {
	sched  Schedule
	shards int

	mu     sync.Mutex
	procs  []transport.ShardProc
	data   []*dataProxy
	ctrl   []*ctrlProxy
	faults []Fault // sorted by epoch
	next   int
	active []activeWindow
	closed bool
}

// New validates the schedule against the fleet size and returns a driver.
func New(sched Schedule, shards int) (*Driver, error) {
	if err := sched.Validate(shards); err != nil {
		return nil, err
	}
	if sched.ReorderDelay <= 0 {
		sched.ReorderDelay = 2 * time.Millisecond
	}
	faults := append([]Fault(nil), sched.Faults...)
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].Epoch < faults[j].Epoch })
	return &Driver{
		sched: sched, shards: shards,
		procs:  make([]transport.ShardProc, shards),
		data:   make([]*dataProxy, shards),
		ctrl:   make([]*ctrlProxy, shards),
		faults: faults,
	}, nil
}

// WrapSpawner wraps a transport Spawner so the driver can kill the shard's
// current runtime and stall its control channel: each spawned runtime is
// recorded (respawned replacements replace their predecessor), and the
// runtime is pointed at a per-shard TCP proxy in front of the real control
// address. The proxy front persists across respawns — a replacement shard
// dials the same front and inherits any active stall.
func (d *Driver) WrapSpawner(inner transport.Spawner) transport.Spawner {
	if inner == nil {
		inner = transport.SpawnInProcess
	}
	return func(controlAddr string, shard int) (transport.ShardProc, error) {
		front, err := d.controlFront(controlAddr, shard)
		if err != nil {
			return nil, err
		}
		p, err := inner(front, shard)
		if err != nil {
			return nil, err
		}
		d.mu.Lock()
		d.procs[shard] = p
		d.mu.Unlock()
		return p, nil
	}
}

// controlFront returns the shard's control proxy front address, creating
// the proxy on first use.
func (d *Driver) controlFront(parentAddr string, shard int) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return "", fmt.Errorf("chaos: driver closed")
	}
	if p := d.ctrl[shard]; p != nil {
		return p.front(), nil
	}
	p, err := newCtrlProxy(parentAddr)
	if err != nil {
		return "", fmt.Errorf("chaos: control proxy for shard %d: %w", shard, err)
	}
	d.ctrl[shard] = p
	return p.front(), nil
}

// AddrRewrite is the UDPOptions.AddrRewrite hook: it routes the shard's
// data plane through a fresh noise proxy seeded from (Schedule.Seed,
// shard). It runs once per join handshake — a respawned shard advertises a
// new port and gets a new proxy, which inherits any active blackhole
// window; noise counters accumulate across replacements.
func (d *Driver) AddrRewrite(shard int, addr string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return addr
	}
	p, err := newDataProxy(d.noiseSeed(shard), d.sched, addr)
	if err != nil {
		// A proxy that cannot even listen on loopback leaves the link
		// clean rather than failing the join.
		return addr
	}
	if old := d.data[shard]; old != nil {
		p.inherit(old)
		old.close()
	} else {
		p.setBlackhole(d.blackholedLocked(shard))
	}
	d.data[shard] = p
	return p.front()
}

// noiseSeed derives the per-shard link-noise seed. Respawns reuse it: the
// replacement proxy continues the shard's draw sequence from the start,
// which keeps runs with identical traffic identical.
func (d *Driver) noiseSeed(shard int) int64 {
	return d.sched.Seed*1000003 + int64(shard)
}

// blackholedLocked reports whether any active window blackholes the shard.
func (d *Driver) blackholedLocked(shard int) bool {
	for _, w := range d.active {
		switch w.fault.Kind {
		case BlackholeShard:
			if w.fault.Shard == shard {
				return true
			}
		case Partition:
			for _, sh := range w.fault.Shards {
				if sh == shard {
					return true
				}
			}
		}
	}
	return false
}

// Advance applies the schedule at one epoch boundary: windows that have
// expired heal first, then every not-yet-fired fault with Epoch <= epoch
// fires. Call it with non-decreasing epochs, before running the epoch.
func (d *Driver) Advance(epoch int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	kept := d.active[:0]
	for _, w := range d.active {
		if w.until <= epoch {
			d.healLocked(w.fault)
			continue
		}
		kept = append(kept, w)
	}
	d.active = kept
	for d.next < len(d.faults) && d.faults[d.next].Epoch <= epoch {
		f := d.faults[d.next]
		d.next++
		d.applyLocked(f, epoch)
	}
}

// applyLocked fires one fault; windowed kinds are recorded as active.
func (d *Driver) applyLocked(f Fault, epoch int) {
	epochs := f.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	switch f.Kind {
	case KillShard:
		if p := d.procs[f.Shard]; p != nil {
			_ = p.Kill()
		}
		return
	case StallControl:
		if p := d.ctrl[f.Shard]; p != nil {
			p.stall()
		}
	case BlackholeShard:
		if p := d.data[f.Shard]; p != nil {
			p.setBlackhole(true)
		}
	case Partition:
		for _, sh := range f.Shards {
			if p := d.data[sh]; p != nil {
				p.setBlackhole(true)
			}
		}
	}
	d.active = append(d.active, activeWindow{fault: f, until: epoch + epochs})
}

// healLocked ends one windowed fault.
func (d *Driver) healLocked(f Fault) {
	switch f.Kind {
	case StallControl:
		if p := d.ctrl[f.Shard]; p != nil {
			p.heal()
		}
	case BlackholeShard:
		if p := d.data[f.Shard]; p != nil && !d.blackholedOthersLocked(f.Shard, f) {
			p.setBlackhole(false)
		}
	case Partition:
		for _, sh := range f.Shards {
			if p := d.data[sh]; p != nil && !d.blackholedOthersLocked(sh, f) {
				p.setBlackhole(false)
			}
		}
	}
}

// blackholedOthersLocked reports whether a window other than exclude still
// blackholes the shard (overlapping windows must not heal early).
func (d *Driver) blackholedOthersLocked(shard int, exclude Fault) bool {
	for _, w := range d.active {
		if w.fault.Epoch == exclude.Epoch && w.fault.Kind == exclude.Kind {
			continue
		}
		switch w.fault.Kind {
		case BlackholeShard:
			if w.fault.Shard == shard {
				return true
			}
		case Partition:
			for _, sh := range w.fault.Shards {
				if sh == shard {
					return true
				}
			}
		}
	}
	return false
}

// Counters sums the link-noise ground truth over every data proxy the
// driver has created, including replaced ones.
func (d *Driver) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	var c Counters
	for _, p := range d.data {
		if p != nil {
			p.addTo(&c)
		}
	}
	return c
}

// Close shuts every proxy down (the transport's own teardown should
// normally run first). Idempotent.
func (d *Driver) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	for _, p := range d.data {
		if p != nil {
			p.close()
		}
	}
	for _, p := range d.ctrl {
		if p != nil {
			p.close()
		}
	}
}
