// Package network simulates the lossy wireless medium of the paper's
// evaluation (§7.1): per-link Bernoulli message loss drawn from a failure
// model — Global(p), Regional(p1,p2), a distance-driven model for the
// LabData scenario, or a timeline that switches models mid-run — plus the
// byte and 32-bit word accounting used for the energy comparisons in
// Table 1 and Figure 8.
//
// Every loss decision is a pure function of (seed, epoch, attempt, sender,
// receiver), so simulations are reproducible regardless of the order in
// which transmissions are evaluated, and a broadcast is correctly modelled
// as one transmission with independent per-receiver losses.
package network

import (
	"math"
	"sync/atomic"

	"tributarydelta/internal/topo"
	"tributarydelta/internal/wire"
	"tributarydelta/internal/xrand"
)

// Model is a failure model: the probability that a message sent by node
// `from` to node `to` during the given epoch is lost. Implementations must
// be deterministic functions of their inputs.
type Model interface {
	LossRate(epoch, from, to int) float64
}

// Global is the paper's Global(p) failure model: every link loses messages
// at rate P.
type Global struct {
	// P is the per-link loss probability.
	P float64
}

// LossRate implements Model.
func (m Global) LossRate(int, int, int) float64 { return m.P }

// Rect is an axis-aligned rectangle {(X0,Y0),(X1,Y1)}.
type Rect struct {
	// X0, Y0, X1, Y1 are the corner coordinates (X0<=X1, Y0<=Y1).
	X0, Y0, X1, Y1 float64
}

// Contains reports whether p lies in the rectangle (inclusive).
func (r Rect) Contains(p topo.Point) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// Regional is the paper's Regional(p1,p2) model: senders inside Region lose
// messages at rate P1, everyone else at rate P2 (§7.1: the failure region is
// {(0,0),(10,10)} of the 20×20 deployment).
type Regional struct {
	// Region is the failure rectangle senders are tested against.
	Region Rect
	// P1 is the loss rate inside Region, P2 outside.
	P1, P2 float64
	// Pos indexes sender positions by node id.
	Pos []topo.Point
}

// LossRate implements Model.
func (m Regional) LossRate(_, from, _ int) float64 {
	if m.Region.Contains(m.Pos[from]) {
		return m.P1
	}
	return m.P2
}

// DistanceModel derives per-link loss from link length, approximating the
// measured link qualities of the LabData deployment: loss grows with
// distance as Base + Scale·(d/Range)^Gamma, capped at Max.
type DistanceModel struct {
	// Pos indexes node positions by id.
	Pos []topo.Point
	// Range is the radio range the link length is normalized by.
	Range float64
	// Base, Scale, Gamma, Max parameterize Base + Scale·(d/Range)^Gamma,
	// capped at Max.
	Base, Scale, Gamma, Max float64
}

// LossRate implements Model.
func (m DistanceModel) LossRate(_, from, to int) float64 {
	d := m.Pos[from].Dist(m.Pos[to])
	frac := d / m.Range
	if frac < 0 {
		frac = 0
	}
	r := m.Base + m.Scale*math.Pow(frac, m.Gamma)
	if r > m.Max {
		r = m.Max
	}
	return r
}

// NodeFailure wraps a model with dead nodes: from epoch From onward, every
// transmission by a node in Dead is lost (battery death, the failure mode
// §1 motivates conserving energy against). Receivers are unaffected — a
// dead node simply stops producing.
type NodeFailure struct {
	// Base is the underlying model for live nodes (nil means lossless).
	Base Model
	// Dead marks the failed senders.
	Dead map[int]bool
	// From is the first epoch the deaths take effect.
	From int
}

// LossRate implements Model.
func (m NodeFailure) LossRate(epoch, from, to int) float64 {
	if epoch >= m.From && m.Dead[from] {
		return 1
	}
	if m.Base == nil {
		return 0
	}
	return m.Base.LossRate(epoch, from, to)
}

// Phase is one segment of a Timeline: Model applies to epochs < Until.
type Phase struct {
	Until int // first epoch NOT covered by this phase
	// Model applies to epochs before Until.
	Model Model
}

// Timeline switches failure models over time — the §7.3 dynamic scenario
// (Global(0) → Regional(0.3,0) → Global(0.3) → Global(0)). Epochs beyond the
// last phase reuse the final model.
type Timeline struct {
	// Phases apply in order; the last one covers all remaining epochs.
	Phases []Phase
}

// LossRate implements Model.
func (m Timeline) LossRate(epoch, from, to int) float64 {
	for _, ph := range m.Phases {
		if epoch < ph.Until {
			return ph.Model.LossRate(epoch, from, to)
		}
	}
	if len(m.Phases) == 0 {
		return 0
	}
	return m.Phases[len(m.Phases)-1].Model.LossRate(epoch, from, to)
}

// Net couples a sensor field with a failure model and a seed, answering the
// one question the aggregation engine asks: did this transmission reach that
// receiver?
type Net struct {
	// Graph is the sensor field's connectivity.
	Graph *topo.Graph
	// Model draws the per-link losses.
	Model Model
	// Seed namespaces the loss realization.
	Seed uint64
}

// New returns a network over the graph with the given model and seed.
func New(g *topo.Graph, m Model, seed uint64) *Net {
	return &Net{Graph: g, Model: m, Seed: seed}
}

// Delivered reports whether the attempt-th transmission of `from` during
// `epoch` was received by `to`. Distinct receivers of the same broadcast see
// independent losses (the paper's per-link loss semantics); distinct
// attempts (retransmissions) are independent too.
func (n *Net) Delivered(epoch, attempt, from, to int) bool {
	return n.Epoch(epoch).Delivered(attempt, from, to)
}

// EpochView is a single-epoch view of the network with the epoch's hash
// prefix pre-folded: a delivery loop that tests thousands of links of one
// epoch pays the (seed, epoch) half of the hash chain once instead of per
// link. The view is a pure value — Delivered answers are bit-identical to
// Net.Delivered — so holding one is always safe; it just goes stale in
// usefulness, never in correctness, when the epoch moves on.
type EpochView struct {
	net    *Net
	epoch  int
	prefix uint64
}

// Epoch returns the delivery view of one epoch.
func (n *Net) Epoch(epoch int) EpochView {
	return EpochView{net: n, epoch: epoch, prefix: xrand.Hash(n.Seed, 0xDE11, uint64(epoch))}
}

// Delivered is Net.Delivered for the view's epoch: the remaining
// (attempt, from, to) identifiers fold onto the cached prefix exactly as
// the full hash chain would.
func (v EpochView) Delivered(attempt, from, to int) bool {
	return v.Sender(attempt, from).Delivered(to)
}

// SenderView is an EpochView with one transmission's (attempt, from) folded
// in too, so the legs of one broadcast pay only the receiver's step of the
// hash chain. Like EpochView it is a pure value.
type SenderView struct {
	net         *Net
	epoch, from int
	prefix      uint64
}

// Sender returns the delivery view of the attempt-th transmission of from.
func (v EpochView) Sender(attempt, from int) SenderView {
	return SenderView{net: v.net, epoch: v.epoch, from: from,
		prefix: xrand.Combine(xrand.Combine(v.prefix, uint64(attempt)), uint64(from))}
}

// Delivered reports whether the view's transmission reached to.
func (v SenderView) Delivered(to int) bool {
	p := v.net.Model.LossRate(v.epoch, v.from, to)
	return !xrand.Bernoulli(xrand.Combine(v.prefix, uint64(to)), p)
}

// DeliveryCache is a delivery loop's memo of the views it used last: the
// epoch's and, within it, the current transmission's. A loop that offers
// each frame to all its receivers before the next frame — a Transport's
// Deliver — pays the epoch and sender steps of the hash chain once per
// frame, not per receiver. The zero value is ready; answers are
// bit-identical to Net.Delivered. Not safe for concurrent use.
type DeliveryCache struct {
	epochView            EpochView
	sender               SenderView
	epoch, attempt, from int
	epochSet, senderSet  bool
}

// Delivered is n.Delivered(epoch, attempt, from, to) through the cache.
func (c *DeliveryCache) Delivered(n *Net, epoch, attempt, from, to int) bool {
	if !c.epochSet || c.epoch != epoch || c.epochView.net != n {
		c.epochView, c.epoch = n.Epoch(epoch), epoch
		c.epochSet, c.senderSet = true, false
	}
	if !c.senderSet || c.attempt != attempt || c.from != from {
		c.sender, c.attempt, c.from = c.epochView.Sender(attempt, from), attempt, from
		c.senderSet = true
	}
	return c.sender.Delivered(to)
}

// Stats accumulates the energy-side metrics of Table 1: per-node
// transmission, byte and word counts, plus per-schedule-level byte loads.
// Bytes are measured from real encoded frames (see internal/wire); Words
// are derived from them, so the accounting can never drift from what was
// actually transmitted.
//
// Concurrency contract (the mutex that guarded every counter in an earlier
// revision measurably slowed the TAG hot path, so the accounting is now
// lock-free and split by writer):
//
//   - The transmit-side mutators (AddTxBytes, AddLoss) must be called from
//     one goroutine at a time — the runner's dispatch goroutine, exactly
//     mirroring the Transport.Deliver contract. They use plain adds, which
//     is what keeps per-transmission recording nearly free.
//   - The receive-side mutators (AddRx, AddDuplicates) are safe for
//     concurrent use and use atomic adds, so a backend may record them off
//     the dispatch goroutine.
//   - The exported counter slices and the transmit-side accessors
//     (TotalWords, TotalBytes, TotalLosses, Max*, AvgWords)
//     may be read only once the transmit writer has quiesced (after an
//     epoch barrier or a completed run). Readers that race a running epoch
//     — a streaming consumer polling a session's stats — use Snapshot,
//     which returns the totals Publish atomically published at the last
//     epoch boundary plus live receive-side sums.
type Stats struct {
	Transmissions []int64 // radio sends (one per broadcast or unicast attempt)
	Words         []int64 // 32-bit words of payload transmitted
	Bytes         []int64 // encoded payload bytes transmitted
	// Losses[v] counts delivery attempts by sender v that did not reach
	// their receiver — medium losses drawn from the failure model, plus any
	// backend-side drops (each broadcast receiver that misses a frame counts
	// as one loss by the sender).
	Losses []int64
	// RxFrames[v] and RxBytes[v] count the frames (and their encoded bytes)
	// actually processed by receiver v's runtime.
	RxFrames []int64
	// RxBytes is the byte-denominated companion of RxFrames.
	RxBytes []int64
	// Duplicates[v] counts datagrams receiver v's runtime saw more than
	// once within one barrier round — real network duplication, observable
	// only on the multi-process UDP backend (the simulator cannot duplicate
	// a frame). Duplicated frames are deduplicated before
	// processing, so they never inflate RxFrames.
	Duplicates []int64
	// LevelBytes[l] is the total encoded bytes transmitted by senders
	// scheduled at level l (ring level, or tree depth in pure-tree mode).
	// The slice is preallocated to one slot per node — the deepest possible
	// schedule — so recording never grows it; levels never observed stay
	// zero.
	LevelBytes []int64

	// Plain running totals maintained by the transmit writer alongside the
	// per-node counters, so Publish is a handful of stores instead of a
	// sweep.
	txWords, txBytes, txLosses int64
	// Published totals: the transmit writer's totals as of the last Publish,
	// readable at any time.
	pubWords, pubBytes, pubLosses atomic.Int64
}

// StatsSnapshot is a race-free point-in-time view of a Stats accumulator's
// totals: the transmit side as of the last Publish (the runner publishes at
// every epoch boundary), the receive side live.
type StatsSnapshot struct {
	// Words and Bytes total the transmitted payload.
	Words, Bytes int64
	// Losses totals failed delivery attempts.
	Losses int64
	// RxFrames totals frames processed by receiver runtimes.
	RxFrames int64
	// Duplicates totals duplicated datagrams discarded by receiver runtimes
	// (UDP backend only).
	Duplicates int64
}

// NewStats returns zeroed stats for n nodes.
func NewStats(n int) *Stats {
	return &Stats{
		Transmissions: make([]int64, n),
		Words:         make([]int64, n),
		Bytes:         make([]int64, n),
		Losses:        make([]int64, n),
		RxFrames:      make([]int64, n),
		RxBytes:       make([]int64, n),
		Duplicates:    make([]int64, n),
		LevelBytes:    make([]int64, n),
	}
}

// AddTxBytes records one transmission by node v at schedule level `level`
// carrying an encoded frame of byteLen bytes. The word count is derived
// from the byte length. A negative level means "no level" and skips the
// per-level accounting; a level beyond the preallocated slots panics (a schedule level is always below the node count — losing
// Figure-8-style per-level tables silently would be worse than crashing).
// Transmit-side: single writer, see the type docs.
func (s *Stats) AddTxBytes(v, level, byteLen int) {
	words := wire.Words(byteLen)
	s.Transmissions[v]++
	s.Words[v] += int64(words)
	s.Bytes[v] += int64(byteLen)
	s.txWords += int64(words)
	s.txBytes += int64(byteLen)
	if level >= 0 {
		s.LevelBytes[level] += int64(byteLen)
	}
}

// AddLoss records one failed delivery attempt by sender v. Transmit-side:
// single writer, see the type docs.
func (s *Stats) AddLoss(v int) {
	s.Losses[v]++
	s.txLosses++
}

// Publish atomically publishes the transmit-side totals for Snapshot
// readers. The runner calls it at every epoch boundary; it must be called
// by the transmit writer (or once it has quiesced).
func (s *Stats) Publish() {
	s.pubWords.Store(s.txWords)
	s.pubBytes.Store(s.txBytes)
	s.pubLosses.Store(s.txLosses)
}

// Snapshot returns the published transmit-side totals and live receive-side
// sums. It is safe at any time, even while an epoch is in flight; after the
// transmit writer quiesces (and a final Publish) it is exact.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Words:      s.pubWords.Load(),
		Bytes:      s.pubBytes.Load(),
		Losses:     s.pubLosses.Load(),
		RxFrames:   s.atomicSum(s.RxFrames),
		Duplicates: s.atomicSum(s.Duplicates),
	}
}

// AddRx records frames processed frames totalling byteLen encoded bytes at
// receiver v, applied in one pair of adds — the shape a remote shard's
// barrier report arrives in. Receive-side: safe for
// concurrent use.
func (s *Stats) AddRx(v int, frames, byteLen int64) {
	atomic.AddInt64(&s.RxFrames[v], frames)
	atomic.AddInt64(&s.RxBytes[v], byteLen)
}

// AddDuplicates records n duplicated datagrams observed (and discarded) by
// receiver v's runtime within one barrier round. Receive-side: safe for
// concurrent use.
func (s *Stats) AddDuplicates(v int, n int64) {
	atomic.AddInt64(&s.Duplicates[v], n)
}

// sum totals a transmit-side slice; callers hold the quiescence contract.
func (s *Stats) sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// atomicSum totals a receive-side slice under concurrent writers.
func (s *Stats) atomicSum(xs []int64) int64 {
	var t int64
	for i := range xs {
		t += atomic.LoadInt64(&xs[i])
	}
	return t
}

func (s *Stats) max(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// TotalWords returns the total words transmitted by all nodes.
func (s *Stats) TotalWords() int64 { return s.sum(s.Words) }

// TotalBytes returns the total encoded payload bytes transmitted by all
// nodes.
func (s *Stats) TotalBytes() int64 { return s.sum(s.Bytes) }

// TotalLosses returns the total failed delivery attempts across all senders.
func (s *Stats) TotalLosses() int64 { return s.sum(s.Losses) }

// TotalRxFrames returns the total frames processed by all receivers. It is
// safe under concurrent receive-side writers.
func (s *Stats) TotalRxFrames() int64 { return s.atomicSum(s.RxFrames) }

// TotalDuplicates returns the total duplicated datagrams discarded across
// all receivers. It is safe under concurrent receive-side writers.
func (s *Stats) TotalDuplicates() int64 { return s.atomicSum(s.Duplicates) }

// MaxBytes returns the largest per-node byte count — the byte-denominated
// "maximum load" of Figure 8.
func (s *Stats) MaxBytes() int64 { return s.max(s.Bytes) }

// MaxWords returns the largest per-node word count — the "maximum load" of
// Figure 8.
func (s *Stats) MaxWords() int64 { return s.max(s.Words) }

// AvgWords returns the mean per-node word count over nodes 1..n−1 (the
// sensors; the base station transmits nothing).
func (s *Stats) AvgWords() float64 {
	if len(s.Words) <= 1 {
		return 0
	}
	return float64(s.sum(s.Words[1:])) / float64(len(s.Words)-1)
}
