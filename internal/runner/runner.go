// Package runner executes Tributary-Delta collection rounds: one aggregate
// answer per epoch, computed level-by-level over the current labeled
// topology exactly as §2 and §3 describe — tree vertices unicast exact
// partial results to their parents, multi-path vertices broadcast synopses
// to the ring above, and the tributary/delta boundary applies the conversion
// function. Messages piggyback an approximate contributing Count (exact
// integers in the tributaries, a small FM sketch in the delta), from which
// the base station drives the §4.2 adaptation strategies.
//
// Every transmission goes over the wire for real: the sender's partial or
// synopsis is serialized by the aggregate's codec into a framed
// internal/wire Envelope, energy accounting charges the encoded byte
// length, losses drop whole frames, and receivers decode actual bytes. The
// codecs are lossless, so results are bit-identical to an in-memory
// hand-off — but sizes can never drift from reality, and the Transport seam
// lets the UDP backend (internal/transport) replace the in-process
// simulator.
//
// An epoch runs on the calling goroutine as one sequential loop over the
// level slots, deepest first — ring l sends only after ring l+1, so a
// deployment's epoch is sequential by construction; hosts scale across
// deployments instead (the facade's Pool). Every stochastic decision is a
// pure function of (seed, epoch, ids) split through internal/xrand, so
// answers do not depend on the order runs or deployments are scheduled in.
//
// The runner also maintains ground truth: after each epoch it walks the
// epoch's deliveries back from the base station to find the sensors actually
// represented in the answer, so experiments can separate communication error
// from approximation error (Table 1's error decomposition). The walk is
// simulator bookkeeping — nothing of it rides in a frame or is charged to
// the energy accounting.
package runner

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/network"
	"tributarydelta/internal/sketch"
	"tributarydelta/internal/tdgraph"
	"tributarydelta/internal/topo"
	"tributarydelta/internal/wire"
	"tributarydelta/internal/xrand"
)

// Mode selects the aggregation scheme under test.
type Mode uint8

const (
	// ModeTree is the TAG baseline: every sensor runs the tree scheme.
	ModeTree Mode = iota
	// ModeMultipath is the SD baseline: every sensor runs synopsis
	// diffusion over rings.
	ModeMultipath
	// ModeTDCoarse adapts the delta region with the TD-Coarse strategy.
	ModeTDCoarse
	// ModeTD adapts the delta region with the fine-grained TD strategy.
	ModeTD
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeTree:
		return "TAG"
	case ModeMultipath:
		return "SD"
	case ModeTDCoarse:
		return "TD-Coarse"
	case ModeTD:
		return "TD"
	}
	return "?"
}

// Config assembles a simulation: topology, network, aggregate and policy.
type Config[V, P, S, R any] struct {
	Graph *topo.Graph
	Rings *topo.Rings
	Tree  *topo.Tree
	Net   *network.Net
	Agg   aggregate.Aggregate[V, P, S, R]
	// Value supplies node readings per epoch (the stream of §2). The runner
	// calls it only from the goroutine running the epoch (or ExactAnswer),
	// so it needs no locking; answers are reproducible when it is a pure
	// function of its arguments, as every shipped workload is.
	Value func(epoch, node int) V
	Mode  Mode
	// Threshold is the user-specified minimum contributing fraction
	// (default 0.90, as in §7.1).
	Threshold float64
	// ShrinkMargin is the slack above Threshold before shrinking ("well
	// above the threshold", §4.2; default 0.08, so the equilibrium sits
	// above the 90% floor rather than at it).
	ShrinkMargin float64
	// AdaptEvery is the adaptation period in epochs (default 10, §7.1).
	AdaptEvery int
	// InitialDeltaLevels seeds the delta region for the TD modes (default
	// 1: the base station's radio neighbourhood).
	InitialDeltaLevels int
	// TreeRetransmits is the number of extra unicast attempts tree nodes
	// make after a loss (0 = the paper's default no-retransmission setup;
	// 2 = the Figure 9(b) configuration).
	TreeRetransmits int
	// ContribK is the bitmap count of the piggybacked contributing-Count
	// sketch (default 40 — the standard Count bit vector of Figure 3, whose
	// ~12% error is accurate enough to steer the 90% threshold).
	ContribK int
	// TopK enables the §4.2 top-k TD expansion heuristic: messages carry
	// the k largest non-contributing subtree counts and expansion targets
	// every subtree at or above the k-th. 0 (default) uses the "max/2"
	// rule over the single largest value.
	TopK int
	// Pipelined runs the §2 pipelined collection: level i processes epoch
	// e while level i+1 already processes e+1, so a node at depth l folds
	// the reading it took maxLevel−l epochs ago. Latency per result drops
	// to one level slot after the pipeline fills; answers mix readings
	// across a window of maxLevel epochs (the documented TAG behaviour for
	// slowly varying signals).
	Pipelined bool
	// Seed drives all the run's randomness.
	Seed uint64
	// Transport overrides frame delivery. Nil uses the in-process simulator
	// over Net — the only mode today; the seam exists so a networked
	// backend can carry the very same frames later.
	Transport Transport
	// Stats, if non-nil, is the accumulator the runner records energy
	// metrics into; nil allocates a fresh one. Sharing the object with a
	// transport backend lets its receive-side accounting land next to the
	// runner's send-side accounting.
	Stats *network.Stats
	// noMemo disables the epoch-over-epoch synopsis memoization (see
	// memo.go) even when the aggregate supports it: the reference slow path
	// the package's transparency tests and perf guards compare against.
	// Answers are bit-identical either way.
	noMemo bool
	// noBatchFuse disables the fused multi-sketch unions: inbox synopses
	// fold through one aggregate.SynopsisBatchFuser pass and contributing-
	// Count sketches through one sketch.UnionAllInto pass when batching is
	// on; off reverts to a Fuse/Union call per sender, the reference slow
	// path of the fused-union guard. Every batched operation is a pure
	// bitwise OR, so answers are bit-identical either way.
	noBatchFuse bool
	// Churn is an optional scripted node-churn schedule: nodes dying,
	// rejoining and re-parenting at fixed epochs, applied before the
	// epoch's first transmission. The schedule is validated up front (New
	// fails on an infeasible event) and is part of the run's identity:
	// answers under a fixed schedule are bit-identical across transports.
	// A down node stays in the contributing-% denominator — exactly the
	// non-contributing pressure the §4.2 adaptation strategies are built
	// to absorb. When a schedule is present the runner clones Tree, so
	// churn never mutates the caller's topology.
	Churn []ChurnEvent
}

// ChurnKind selects a scripted churn event's effect.
type ChurnKind uint8

const (
	// ChurnDown silences a node: it stops transmitting and everything sent
	// to it is lost. Its sensors stay in the contributing-% denominator.
	ChurnDown ChurnKind = iota
	// ChurnUp revives a previously downed node in place.
	ChurnUp
	// ChurnReparent moves a node's tree link to a new parent (a radio
	// neighbour; in the TD modes also one ring closer to the base, the
	// §4.1 closure requirement).
	ChurnReparent
)

// ChurnEvent is one scripted topology change, applied at the start of
// epoch Epoch (before any transmission of that epoch).
type ChurnEvent struct {
	Epoch int
	Kind  ChurnKind
	// Node is the affected sensor. The base station cannot churn.
	Node int
	// NewParent is the target of a ChurnReparent; ignored otherwise.
	NewParent int
}

// EpochResult is one collection round's outcome.
type EpochResult[R any] struct {
	Epoch int
	// Answer is the base station's evaluated result.
	Answer R
	// EstContrib is the base station's (approximate) count of contributing
	// sensors — what adaptation decisions are based on.
	EstContrib float64
	// TrueContrib is the exact number of sensors represented in the answer
	// (ground truth from the simulator).
	TrueContrib int
	// DeltaSize is the delta region size after this round's adaptation.
	DeltaSize int
	// Action is the adaptation action taken after this round.
	Action tdgraph.Action
	// Switched is the number of vertices switched by Action.
	Switched int
}

// Runner executes collection rounds. Construct with New.
type Runner[V, P, S, R any] struct {
	cfg   Config[V, P, S, R]
	state *tdgraph.State
	ctrl  *tdgraph.Controller
	// Stats accumulates per-node energy metrics across all epochs run.
	Stats *network.Stats
	// lastNC is each switchable M vertex's most recent count of
	// non-contributing subtree nodes (node-local memory in §4.2).
	lastNC []int
	// fracSum/fracN average the noisy contributing estimates between
	// adaptation periods, so decisions see the period mean rather than one
	// ±12% FM observation.
	fracSum float64
	fracN   int
	// schedLevel orders transmissions: ring level in multi-path and TD
	// modes, tree depth in pure-tree mode (TAG trees may use same-ring
	// parents).
	schedLevel []int
	maxLevel   int
	sensors    int // reachable sensors (the denominator of % contributing)
	words      int // words of the ground-truth contributor bitset
	// lastContributors is the ground-truth bitset of the most recent epoch,
	// exposed for diagnostics and tests; it is overwritten by the next
	// epoch.
	lastContributors []uint64
	// reach is the ground-truth walk's stack of reached senders.
	reach []int32
	// transport carries encoded frames (the simulator unless overridden);
	// marker is its optional epoch-barrier extension, resolved once.
	transport Transport
	marker    EpochMarker
	// rec is the aggregate's optional synopsis-recycling fast path,
	// resolved once; nil falls back to the allocating Convert/Decode.
	rec aggregate.SynopsisRecycler[P, S]
	// prec is the partial-recycling fast path, resolved once: each sender's
	// local and decoded partials are rebuilt in its frame slot's storage.
	// Nil falls back to the allocating Local/DecodePartial.
	prec aggregate.PartialRecycler[V, P]
	// maxSynBytes and maxSynFrame are the aggregate's optional bound on an
	// encoded synopsis and the framed envelope around it (0 when the
	// aggregate gives none): the sizes the encode scratch and synopsis
	// frame slots are allocated at, so byte-trimmed sketches that come out
	// wider than in any earlier epoch do not regrow a buffer.
	maxSynBytes, maxSynFrame int
	// memo is the aggregate's optional cross-epoch memoization extension
	// (resolved once); memoState carries the per-node caches and memoOn
	// whether the current epoch runs with memoization engaged. See memo.go.
	memo      aggregate.SynopsisMemoizer[P, S]
	memoState []nodeMemo[P, S]
	memoOn    bool
	// fuser is the aggregate's optional batch-fusion extension (resolved
	// once, absent under Config.noBatchFuse): a node's whole inbox of
	// synopses folds in one pass instead of one Fuse call per sender.
	// batchUnions gates the analogous one-pass fold of contributing-Count
	// sketches — plain bitwise OR, so it needs nothing from the aggregate.
	fuser       aggregate.SynopsisBatchFuser[S]
	batchUnions bool
	// trackNC engages the §4.2 non-contributing-count bookkeeping (frontier
	// subtree NC counts, top-k merge, wire hints). Only the TD expansion
	// strategy consumes them — StrategyNone (pure multipath) and the coarse
	// strategy decide on the contributing fraction alone, so their runs skip
	// the bookkeeping and their frames never carry the hints. Even under TD
	// the hints travel only on decision epochs (see ncEpoch).
	trackNC bool
	// keysStable reports that neither hash-reseeding period rolled over
	// since the last epoch; memoPrimed that prevAggKey/prevContribKey hold
	// a recorded epoch's keys.
	keysStable     bool
	memoPrimed     bool
	prevAggKey     uint64
	prevContribKey uint64
	// byLevel is the transmission schedule: the participating nodes of
	// each level. Static within a run unless a ChurnReparent fires in tree
	// mode (depths change), which rebuilds it via rebuildSchedule.
	byLevel [][]int
	// levelOff maps a level to the offset of its first slot in the
	// epoch-wide envs/frames arenas; level l's senders occupy slots
	// [levelOff[l], levelOff[l]+len(byLevel[l])). Rebuilt with byLevel.
	levelOff []int
	// churn is the validated, epoch-sorted churn schedule; churnNext the
	// next unapplied event; down the current liveness mask (down nodes
	// neither transmit nor receive but stay in the sensors denominator).
	churn     []ChurnEvent
	churnNext int
	down      []bool
	// inbox holds each receiver's arrivals as slot indices into the
	// epoch-wide arenas — an inbox entry is a 4-byte reference, not an
	// envelope copy, so a broadcast delivered to many parents shares one
	// decoded envelope. Buffers are retained across epochs (lengths reset,
	// capacity kept).
	inbox [][]int32
	// envs is the epoch-wide arena of outgoing envelopes, one slot per
	// participating sender, laid out level-major (see levelOff).
	// buildEnvelope fully overwrites each slot every epoch.
	envs []envelope[P, S]
	// frames is the matching arena of encoded outgoing frames and, for
	// frames that reached at least one receiver, their decoded shared
	// envelope. Each sender's buffer persists across epochs (recycled via
	// buf[:0]), which is also what the epoch-over-epoch frame memoization
	// reuses.
	frames []frameSlot[P, S]
	// arrivals is the level's delivery record in schedule order — the
	// deterministic sequence the fill phase appends receiver inboxes in.
	arrivals []arrival

	// scratch is the epoch's reusable decode arena, recycled pools and
	// encode buffers.
	scratch epochScratch[P, S]

	// Base-station evaluation scratch, reused epoch to epoch so the
	// steady-state loop allocates nothing.
	baseCS           *sketch.Sketch
	baseTreeParts    []P
	baseSyns         []S
	baseContrib      []uint64
	baseChildContrib map[int]int64
	baseContribSrcs  []*sketch.Sketch
	// baseTopNC and baseMinNC are the §4.2 statistics the base station
	// merged this epoch: empty except on decision epochs.
	baseTopNC []int
	baseMinNC int
}

// arrival records one successful delivery: receiver and the index of the
// sender's frame in the level's frame table.
type arrival struct {
	to, frame int32
}

// frameSlot is one sender's encoded frame plus its decoded envelope. A
// broadcast is decoded once and the envelope struct shared among its
// receivers — fusion treats inputs as read-only, so this is
// indistinguishable from per-receiver decoding and keeps decode work linear
// in frames, not deliveries.
type frameSlot[P, S any] struct {
	buf    []byte
	env    envelope[P, S]
	needed bool
	// ncEpoch records that buf was built on an epoch whose frames carry the
	// §4.2 statistics (see Runner.ncEpoch): a memoized frame is reused only
	// on an epoch of the same kind.
	ncEpoch bool
	// own and dec are the sender's recycled partials (under a
	// PartialRecycler): its local result, folded with its children's when
	// it is a tree vertex, and the decoded copy its receivers read. syn and
	// decSyn are its recycled synopses (under a SynopsisRecycler): a
	// multi-path sender's outgoing synopsis and its decoded copy — for a
	// tree sender at the boundary, syn holds the receiver's conversion of
	// its partial. Owned by the slot rather than drawn from a shared pool,
	// each stays at its own sender's size whatever the loss pattern.
	own, dec          P
	syn, decSyn       S
	ownSet, decSet    bool
	synSet, decSynSet bool
}

// epochScratch is the runner's reusable per-epoch scratch: the decode arena,
// the recycled contributing-Count pool, the outgoing top-NC buffer and the
// encode buffers. The pool resets each epoch.
type epochScratch[P, S any] struct {
	dec        wire.Decoder
	skPool     contribSketchPool
	topNC      []int
	payloadBuf []byte
	contribBuf []byte
	// fuseSrcs/contribSrcs gather one node's fusion inputs for the batched
	// single-pass folds.
	fuseSrcs    []S
	contribSrcs []*sketch.Sketch
}

// resetEpoch prepares the scratch for a new epoch.
func (sc *epochScratch[P, S]) resetEpoch() {
	sc.dec.Reset()
	sc.skPool.reset()
}

// contribSketchPool hands out ContribK-bitmap sketches, recycling them each
// epoch. Pool entries are fully overwritten at reuse (LoadWire or Reset),
// never assumed clean.
type contribSketchPool struct {
	k     int
	items []*sketch.Sketch
	next  int
}

func (p *contribSketchPool) reset() { p.next = 0 }

func (p *contribSketchPool) get() *sketch.Sketch {
	if p.next < len(p.items) {
		s := p.items[p.next]
		p.next++
		return s
	}
	s := sketch.New(p.k)
	p.items = append(p.items, s)
	p.next++
	return s
}

// Transport is the delivery seam between the runner and the medium: it
// carries an already-encoded frame and reports whether it reached the
// receiver. The in-process implementation consults the loss model; the UDP
// backend puts the frame on a real socket.
//
// The runner calls Deliver from the goroutine running the epoch, level by
// level (deepest first) and, for tree unicasts, once per retransmission
// attempt in increasing attempt order. Returning false means the frame was
// lost whole — there is no partial delivery — and the runner records the
// failed attempt in Stats.Losses.
type Transport interface {
	// Deliver reports whether the attempt-th transmission of frame by
	// `from` during `epoch` reached `to`. Implementations must not retain
	// frame — the runner reuses the buffer.
	Deliver(epoch, attempt, from, to int, frame []byte) bool
}

// EpochMarker is an optional Transport extension: the runner brackets every
// collection round with BeginEpoch/EndEpoch so networked backends can
// maintain an epoch barrier — every frame delivered during epoch e is fully
// processed by its receiver's runtime before EndEpoch(e) returns, and hence
// before epoch e+1 begins.
type EpochMarker interface {
	BeginEpoch(epoch int)
	EndEpoch(epoch int)
}

// simTransport adapts network.Net to the Transport seam: delivery is a pure
// function of (seed, epoch, attempt, from, to); the frame travels by
// staying in memory. The delivery cache folds the epoch and the sender into
// the loss hash chain once per frame, not per broadcast leg; Deliver is
// called from one goroutine per the Transport contract, so it is race-free.
type simTransport struct {
	net   *network.Net
	links network.DeliveryCache
}

// Deliver implements Transport.
func (t *simTransport) Deliver(epoch, attempt, from, to int, _ []byte) bool {
	return t.links.Delivered(t.net, epoch, attempt, from, to)
}

type envelope[P, S any] struct {
	from   int
	isTree bool
	p      P
	s      S
	// contribTree is the exact count of sensors in a tree partial.
	contribTree int64
	// contribSk is the delta's duplicate-insensitive contributing count.
	contribSk *sketch.Sketch
	// topNC propagates the §4.2 TD statistics: the largest reported
	// non-contributing subtree counts, descending (topNC[0] is the max);
	// minNC the smallest. ncValid marks presence.
	topNC   []int
	minNC   int
	ncValid bool
}

// New validates the configuration and prepares a runner.
func New[V, P, S, R any](cfg Config[V, P, S, R]) (*Runner[V, P, S, R], error) {
	if cfg.Graph == nil || cfg.Rings == nil || cfg.Tree == nil || cfg.Net == nil {
		return nil, errors.New("runner: incomplete topology configuration")
	}
	if cfg.Agg == nil || cfg.Value == nil {
		return nil, errors.New("runner: aggregate and value source required")
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.90
	}
	if cfg.ShrinkMargin == 0 {
		cfg.ShrinkMargin = 0.08
	}
	if cfg.AdaptEvery == 0 {
		cfg.AdaptEvery = 10
	}
	if cfg.ContribK == 0 {
		cfg.ContribK = 40
	}
	if cfg.InitialDeltaLevels == 0 {
		cfg.InitialDeltaLevels = 1
	}

	if len(cfg.Churn) > 0 {
		// Reparent events mutate the tree, and callers (the facade shares
		// one scenario tree across sessions) expect theirs untouched.
		cfg.Tree = cfg.Tree.Clone()
	}

	adaptive := cfg.Mode == ModeTD || cfg.Mode == ModeTDCoarse
	if adaptive && !cfg.Tree.LinksSubsetOfRings(cfg.Graph, cfg.Rings) {
		return nil, errors.New("runner: TD modes require tree links to be rings links (§4.1)")
	}
	churn := append([]ChurnEvent(nil), cfg.Churn...)
	sort.SliceStable(churn, func(i, j int) bool { return churn[i].Epoch < churn[j].Epoch })
	if err := validateChurn(churn, cfg.Graph, cfg.Rings, cfg.Tree, cfg.Mode); err != nil {
		return nil, err
	}

	var deltaLevels int
	switch cfg.Mode {
	case ModeTree:
		deltaLevels = 0
	case ModeMultipath:
		deltaLevels = cfg.Rings.Max
	default:
		deltaLevels = cfg.InitialDeltaLevels
	}
	state := tdgraph.NewState(cfg.Graph, cfg.Rings, cfg.Tree, deltaLevels)

	var strategy tdgraph.Strategy
	switch cfg.Mode {
	case ModeTD:
		strategy = tdgraph.StrategyTD
	case ModeTDCoarse:
		strategy = tdgraph.StrategyCoarse
	default:
		strategy = tdgraph.StrategyNone
	}
	ctrl := tdgraph.NewController(strategy)
	ctrl.Threshold = cfg.Threshold
	ctrl.ShrinkMargin = cfg.ShrinkMargin
	ctrl.TopK = cfg.TopK

	n := cfg.Graph.N()
	if cfg.Stats == nil {
		cfg.Stats = network.NewStats(n)
	}
	r := &Runner[V, P, S, R]{
		cfg:        cfg,
		state:      state,
		ctrl:       ctrl,
		Stats:      cfg.Stats,
		lastNC:     make([]int, n),
		schedLevel: make([]int, n),
		words:      (n + 63) / 64,
		transport:  cfg.Transport,
		churn:      churn,
		down:       make([]bool, n),
	}
	if r.transport == nil {
		r.transport = &simTransport{net: cfg.Net}
	}
	r.marker, _ = r.transport.(EpochMarker)
	r.rec, _ = cfg.Agg.(aggregate.SynopsisRecycler[P, S])
	r.prec, _ = cfg.Agg.(aggregate.PartialRecycler[V, P])
	if sz, ok := cfg.Agg.(aggregate.SynopsisSizer); ok {
		r.maxSynBytes = sz.MaxSynopsisBytes()
		r.maxSynFrame = wire.MaxSynopsisEnvelopeBytes(
			sketch.WireBytes(r.cfg.ContribK), r.topKCap()+1, r.maxSynBytes)
	}
	// The memoization extension only pays on the multi-path side; a pure
	// tree run has no synopses to cache, so it skips the bookkeeping too.
	if cfg.Mode != ModeTree {
		r.memo, _ = cfg.Agg.(aggregate.SynopsisMemoizer[P, S])
	}
	if r.memo != nil && r.rec != nil {
		r.memoState = make([]nodeMemo[P, S], n)
	} else {
		r.memo = nil
	}
	r.batchUnions = !cfg.noBatchFuse
	if r.batchUnions {
		r.fuser, _ = cfg.Agg.(aggregate.SynopsisBatchFuser[S])
	}
	r.trackNC = strategy == tdgraph.StrategyTD
	for i := range r.lastNC {
		r.lastNC[i] = -2 // never reported
	}
	r.rebuildSchedule()
	for v := 1; v < n; v++ {
		if r.participates(v) {
			r.sensors++
		}
	}
	if r.sensors == 0 {
		return nil, errors.New("runner: no sensor can reach the base station")
	}
	r.scratch = epochScratch[P, S]{
		skPool:     contribSketchPool{k: cfg.ContribK},
		topNC:      make([]int, 0, r.topKCap()+1),
		payloadBuf: make([]byte, 0, r.maxSynBytes),
		contribBuf: make([]byte, 0, sketch.WireBytes(cfg.ContribK)),
	}
	return r, nil
}

// rebuildSchedule recomputes the level-by-level transmission order
// (schedLevel/byLevel/levelOff) and resizes the epoch-wide envelope and
// frame arenas to one slot per participating sender. Participation and
// levels are fixed for a run except under tree-mode reparenting, whose
// depth changes re-enter here between epochs; the sensors denominator is
// deliberately NOT recomputed (see Config.Churn).
func (r *Runner[V, P, S, R]) rebuildSchedule() {
	cfg := &r.cfg
	n := cfg.Graph.N()
	depths := cfg.Tree.Depths()
	r.maxLevel = 0
	for v := 0; v < n; v++ {
		if cfg.Mode == ModeTree {
			r.schedLevel[v] = depths[v]
		} else {
			r.schedLevel[v] = cfg.Rings.Level[v]
		}
		if r.schedLevel[v] > r.maxLevel {
			r.maxLevel = r.schedLevel[v]
		}
	}
	r.byLevel = make([][]int, r.maxLevel+1)
	for v := 1; v < n; v++ {
		if r.participates(v) {
			l := r.schedLevel[v]
			if l >= 1 {
				r.byLevel[l] = append(r.byLevel[l], v)
			}
		}
	}
	// The envelope and frame arenas hold one slot per sender for the whole
	// epoch, laid out level-major, so inboxes can reference envelopes by
	// index instead of copying them.
	r.levelOff = make([]int, r.maxLevel+1)
	total := 0
	for l := 1; l <= r.maxLevel; l++ {
		r.levelOff[l] = total
		total += len(r.byLevel[l])
	}
	if total != len(r.envs) {
		r.envs = make([]envelope[P, S], total)
		r.frames = make([]frameSlot[P, S], total)
	}
}

// validateChurn simulates the schedule's tree evolution up front: RunEpoch
// has no error return, so an infeasible event must fail construction, not
// the run. Events are checked in schedule order against the evolving
// parent vector and liveness set.
func validateChurn(events []ChurnEvent, g *topo.Graph, rings *topo.Rings, tree *topo.Tree, mode Mode) error {
	if len(events) == 0 {
		return nil
	}
	n := g.N()
	parent := append([]int(nil), tree.Parent...)
	down := make([]bool, n)
	adjacent := func(a, b int) bool {
		for _, w := range g.Adj[a] {
			if w == b {
				return true
			}
		}
		return false
	}
	for i, ev := range events {
		if ev.Epoch < 0 {
			return fmt.Errorf("runner: churn event %d: negative epoch %d", i, ev.Epoch)
		}
		if ev.Node <= 0 || ev.Node >= n {
			return fmt.Errorf("runner: churn event %d: node %d out of range (the base station cannot churn)", i, ev.Node)
		}
		switch ev.Kind {
		case ChurnDown:
			if down[ev.Node] {
				return fmt.Errorf("runner: churn event %d: node %d is already down", i, ev.Node)
			}
			down[ev.Node] = true
		case ChurnUp:
			if !down[ev.Node] {
				return fmt.Errorf("runner: churn event %d: node %d is not down", i, ev.Node)
			}
			down[ev.Node] = false
		case ChurnReparent:
			p := ev.NewParent
			if p < 0 || p >= n || p == ev.Node {
				return fmt.Errorf("runner: churn event %d: invalid new parent %d for node %d", i, p, ev.Node)
			}
			if p != topo.Base && parent[p] == -1 {
				return fmt.Errorf("runner: churn event %d: new parent %d is outside the tree", i, p)
			}
			for u := p; u != -1; u = parent[u] {
				if u == ev.Node {
					return fmt.Errorf("runner: churn event %d: reparenting %d under its own subtree would cycle", i, ev.Node)
				}
			}
			if !adjacent(ev.Node, p) {
				return fmt.Errorf("runner: churn event %d: nodes %d and %d are not radio neighbours", i, ev.Node, p)
			}
			if (mode == ModeTD || mode == ModeTDCoarse) && rings.Level[p] != rings.Level[ev.Node]-1 {
				return fmt.Errorf("runner: churn event %d: TD modes require tree links to be rings links — parent %d is at ring %d, node %d at ring %d (§4.1)", i, p, rings.Level[p], ev.Node, rings.Level[ev.Node])
			}
			parent[ev.Node] = p
		default:
			return fmt.Errorf("runner: churn event %d: unknown kind %d", i, ev.Kind)
		}
	}
	return nil
}

// applyChurn fires every schedule event due at or before epoch. The events
// were validated at New against the same evolution, so application cannot
// fail. Any event invalidates the synopsis memo (topology is part of the
// memo key's implicit context), and a tree-mode reparent rebuilds the
// depth-ordered transmission schedule.
func (r *Runner[V, P, S, R]) applyChurn(epoch int) {
	for r.churnNext < len(r.churn) && r.churn[r.churnNext].Epoch <= epoch {
		ev := r.churn[r.churnNext]
		r.churnNext++
		switch ev.Kind {
		case ChurnDown:
			r.down[ev.Node] = true
		case ChurnUp:
			r.down[ev.Node] = false
		case ChurnReparent:
			if err := r.state.Reparent(ev.Node, ev.NewParent); err != nil {
				panic(fmt.Sprintf("runner: validated churn event failed: %v", err))
			}
			if r.cfg.Mode == ModeTree {
				r.rebuildSchedule()
			}
		}
		r.bustMemo()
	}
}

// Close releases nothing: an epoch runs entirely on the calling goroutine,
// so a runner owns no goroutines or descriptors. It is idempotent, and kept
// for callers that close every stack they build (bench/trace.go).
func (r *Runner[V, P, S, R]) Close() {}

// participates reports whether sensor v takes part in aggregation (reachable
// and, in tree mode, attached to the tree).
func (r *Runner[V, P, S, R]) participates(v int) bool {
	if r.cfg.Mode == ModeTree {
		return r.cfg.Tree.InTree(v) && v != topo.Base
	}
	return r.cfg.Rings.Reachable(v) && v != topo.Base
}

// ResetStats zeroes the energy accounting — used by experiments that
// measure steady-state loads after a warm-up.
func (r *Runner[V, P, S, R]) ResetStats() {
	r.Stats = network.NewStats(r.cfg.Graph.N())
}

// Levels returns the number of level slots per epoch — the latency measure
// of Table 1 (latency = epoch duration × levels).
func (r *Runner[V, P, S, R]) Levels() int { return r.maxLevel }

// Sensors returns the number of participating sensors.
func (r *Runner[V, P, S, R]) Sensors() int { return r.sensors }

// State exposes the labeled graph (read-mostly; tests also validate it).
func (r *Runner[V, P, S, R]) State() *tdgraph.State { return r.state }

// ExactAnswer computes the ground-truth answer for an epoch over all
// participating sensors that are currently up (churned-down nodes cannot
// contribute a reading, so ground truth excludes them too).
func (r *Runner[V, P, S, R]) ExactAnswer(epoch int) R {
	var vs []V
	for v := 1; v < r.cfg.Graph.N(); v++ {
		if r.participates(v) && !r.down[v] {
			vs = append(vs, r.cfg.Value(epoch, v))
		}
	}
	return r.cfg.Agg.Exact(vs)
}

// contribSeed namespaces the piggyback sketch's hash sub-stream. Like the
// aggregates' synopsis hashes, it is fixed within an adaptation period — the
// bits a (owner, count) credit sets are a pure function of identity for the
// period's epochs, which is what lets the epoch engine memoize contributing
// insertions — and re-drawn between periods, so the §4.2 decision mean
// averages independent FM realizations. Per-node disjointness comes from
// the owner ids folded into every insertion (see xrand.Split).
func (r *Runner[V, P, S, R]) contribSeed(epoch int) uint64 {
	return xrand.Split(r.cfg.Seed, 0xCB, r.contribEpochKey(epoch))
}

// contribEpochKey maps an epoch to its contributing-hash period.
func (r *Runner[V, P, S, R]) contribEpochKey(epoch int) uint64 {
	return uint64(epoch / r.cfg.AdaptEvery)
}

// ncEpoch reports whether epoch's frames carry the §4.2 non-contributing
// statistics: only under TD, and only on the last epoch of an adaptation
// period, the one whose statistics Decide reads. lastNC is still refreshed
// every epoch: Decide also reads the last report of a vertex that stopped
// reporting mid-period (churn), and that must not depend on which epochs
// ship the statistics.
func (r *Runner[V, P, S, R]) ncEpoch(epoch int) bool {
	return r.trackNC && (epoch+1)%r.cfg.AdaptEvery == 0
}

// topKCap is how many NC values envelopes carry: at least the controller's
// k, minimum 4 so the max/2 rule sees ties.
func (r *Runner[V, P, S, R]) topKCap() int {
	if r.cfg.TopK > 4 {
		return r.cfg.TopK
	}
	return 4
}

// valueEpoch maps a collection epoch to the epoch whose reading node v
// folds in: identical under synchronous collection, shifted by the node's
// pipeline stage when Pipelined.
func (r *Runner[V, P, S, R]) valueEpoch(epoch, v int) int {
	if !r.cfg.Pipelined {
		return epoch
	}
	e := epoch - (r.maxLevel - r.schedLevel[v])
	if e < 0 {
		e = 0
	}
	return e
}

// mergeTopK folds src into dst keeping the cap largest values, descending.
func mergeTopK(dst, src []int, cap int) []int {
	for _, v := range src {
		dst = insertTopK(dst, v, cap)
	}
	return dst
}

func insertTopK(dst []int, v, cap int) []int {
	pos := len(dst)
	for i, x := range dst {
		if v > x {
			pos = i
			break
		}
	}
	if pos >= cap {
		return dst
	}
	dst = append(dst, 0)
	copy(dst[pos+1:], dst[pos:])
	dst[pos] = v
	if len(dst) > cap {
		dst = dst[:cap]
	}
	return dst
}

// RunEpoch executes one collection round and, on adaptation periods, one
// adaptation decision.
func (r *Runner[V, P, S, R]) RunEpoch(epoch int) EpochResult[R] {
	r.applyChurn(epoch)
	if r.marker != nil {
		r.marker.BeginEpoch(epoch)
		defer r.marker.EndEpoch(epoch)
	}
	n := r.cfg.Graph.N()
	if r.inbox == nil {
		r.inbox = make([][]int32, n)
	} else {
		for v := range r.inbox {
			r.inbox[v] = r.inbox[v][:0]
		}
	}
	for i := range r.frames {
		r.frames[i].needed = false
	}
	r.scratch.resetEpoch()
	r.beginMemoEpoch(epoch)

	// Nodes transmit level by level toward the base station, deepest first
	// (§2): build+encode the level's envelopes, dispatch deliveries in
	// schedule order, decode the delivered frames once each, and fill
	// receiver inboxes in delivery order — an inbox entry is the slot index
	// of the sender's decoded envelope, shared by every receiver of the
	// broadcast.
	for level := r.maxLevel; level >= 1; level-- {
		nodes := r.byLevel[level]
		if len(nodes) == 0 {
			continue
		}
		off := r.levelOff[level]

		r.buildLevel(epoch, nodes, off)

		r.arrivals = r.arrivals[:0]
		for i, v := range nodes {
			if r.down[v] {
				continue // churned-down nodes are silent
			}
			r.deliver(epoch, v, off+i, &r.envs[off+i])
		}

		r.decodeLevel(nodes, off)

		for _, a := range r.arrivals {
			r.inbox[a.to] = append(r.inbox[a.to], a.frame)
		}
	}

	res := r.evalBase(epoch)
	r.Stats.Publish()
	return res
}

// evalBase is the base station's §2 evaluation (SE; exact combine for tree
// partials) plus the §4.2 adaptation decision on period boundaries. All its
// scratch is runner-owned and recycled, so steady-state epochs allocate
// nothing here.
func (r *Runner[V, P, S, R]) evalBase(epoch int) EpochResult[R] {
	treeParts := r.baseTreeParts[:0]
	syns := r.baseSyns[:0]
	var exactContrib int64
	if r.baseCS == nil {
		r.baseCS = sketch.New(r.cfg.ContribK)
		r.baseContrib = make([]uint64, r.words)
		r.baseChildContrib = make(map[int]int64)
		r.baseTopNC = make([]int, 0, r.topKCap()+1)
	}
	cs := r.baseCS
	cs.Reset()
	contribSrcs := r.baseContribSrcs[:0]
	baseChildContrib := r.baseChildContrib
	clear(baseChildContrib)
	shipNC := r.ncEpoch(epoch)
	topNC := r.baseTopNC[:0]
	minNC, ncValid := 0, false
	for _, idx := range r.inbox[topo.Base] {
		e := &r.frames[idx].env
		if e.isTree {
			treeParts = append(treeParts, e.p)
			exactContrib += e.contribTree
			baseChildContrib[e.from] = e.contribTree
		} else {
			syns = append(syns, e.s)
			if r.batchUnions {
				contribSrcs = append(contribSrcs, e.contribSk)
			} else {
				cs.Union(e.contribSk)
			}
			if shipNC && e.ncValid {
				topNC = mergeTopK(topNC, e.topNC, r.topKCap())
				if !ncValid || e.minNC < minNC {
					minNC = e.minNC
				}
				ncValid = true
			}
		}
	}
	if len(contribSrcs) > 0 {
		// cs was just Reset, so the plain overwrite semantics of the fused
		// union are exactly right here.
		sketch.UnionAllInto(cs, contribSrcs...)
	}
	r.baseContribSrcs = contribSrcs
	answer := r.cfg.Agg.EvalBase(treeParts, syns)
	estContrib := float64(exactContrib) + cs.Estimate()
	contributors := r.groundTruth()
	r.lastContributors = contributors
	r.baseTreeParts = treeParts
	r.baseSyns = syns

	res := EpochResult[R]{
		Epoch:       epoch,
		Answer:      answer,
		EstContrib:  estContrib,
		TrueContrib: popcount(contributors),
		DeltaSize:   r.state.DeltaSize(),
	}

	// The base station sees each direct T child's subtree contribution (or
	// its absence) and records its non-contributing count for the TD
	// strategy (see tdgraph.State.expandBaseChildren); only that strategy
	// reads the counts.
	if r.trackNC {
		for _, c := range r.cfg.Tree.Children[topo.Base] {
			if r.state.IsM(c) || !r.participates(c) {
				continue
			}
			nc := r.state.SubtreeSize(c) - int(baseChildContrib[c])
			if nc < 0 {
				nc = 0
			}
			r.lastNC[c] = nc
			if !shipNC {
				continue
			}
			topNC = insertTopK(topNC, nc, r.topKCap())
			if !ncValid || nc < minNC {
				minNC = nc
			}
			ncValid = true
		}
	}
	r.baseTopNC, r.baseMinNC = topNC, minNC

	// Adaptation period: the base station compares % contributing against
	// the threshold and broadcasts a switch directive (§4.2).
	// The raw fraction is deliberately not clamped at 1: the FM estimate is
	// unbiased, and clamping before averaging would bias the period mean
	// downward, preventing large deltas from ever looking "well above" the
	// threshold.
	r.fracSum += estContrib / float64(r.sensors)
	r.fracN++
	if (epoch+1)%r.cfg.AdaptEvery == 0 {
		mean := r.fracSum / float64(r.fracN)
		r.fracSum, r.fracN = 0, 0
		action, switched := r.ctrl.Decide(r.state, mean, r.lastNC, topNC, minNC)
		res.Action = action
		res.Switched = switched
		res.DeltaSize = r.state.DeltaSize()
		if switched > 0 {
			// The relabeling moved the tributary/delta boundary: every cached
			// conversion owner and frame is suspect.
			r.bustMemo()
		}
	}
	return res
}

// Run executes epochs rounds starting at epoch 0.
func (r *Runner[V, P, S, R]) Run(epochs int) []EpochResult[R] {
	out := make([]EpochResult[R], 0, epochs)
	for e := 0; e < epochs; e++ {
		out = append(out, r.RunEpoch(e))
	}
	return out
}

// buildLevel builds and encodes the envelope of every sender of one level
// into its arena slot (off is the level's base slot), reusing last epoch's
// frame where the memo proves it unchanged.
//
//td:hotpath
func (r *Runner[V, P, S, R]) buildLevel(epoch int, nodes []int, off int) {
	for i, v := range nodes {
		slot := off + i
		own := r.local(epoch, v, &r.frames[slot])
		if r.memoOn && r.tryReuseFrame(epoch, v, slot, own) {
			continue
		}
		r.buildEnvelope(epoch, v, own, slot)
		r.encodeFrame(epoch, &r.envs[slot], &r.frames[slot])
		if r.memoOn {
			r.recordMemo(v)
		}
	}
}

// decodeLevel decodes, once each, the level's frames that reached at least
// one receiver.
//
//td:hotpath
func (r *Runner[V, P, S, R]) decodeLevel(nodes []int, off int) {
	for i := range nodes {
		f := &r.frames[off+i]
		if !f.needed {
			continue
		}
		r.decodeFrame(f)
	}
}

// local is node v's local result for the epoch, rebuilt in the sender's
// frame slot when the aggregate recycles partials.
//
//td:hotpath
func (r *Runner[V, P, S, R]) local(epoch, v int, f *frameSlot[P, S]) P {
	val := r.cfg.Value(r.valueEpoch(epoch, v), v)
	if r.prec == nil {
		return r.cfg.Agg.Local(epoch, v, val)
	}
	if !f.ownSet {
		f.own, f.ownSet = r.prec.NewPartial(), true
	}
	return r.prec.LocalInto(epoch, v, val, f.own)
}

// keepPartial copies p into storage the caller owns across epochs (*dst,
// allocated on first use) when p is recycled storage, and returns the copy;
// without a PartialRecycler partials are never rebuilt in place, so p itself
// is kept.
func (r *Runner[V, P, S, R]) keepPartial(dst *P, set *bool, p P) P {
	if r.prec == nil {
		return p
	}
	if !*set {
		*dst, *set = r.prec.NewPartial(), true
	}
	return r.prec.CopyPartialInto(*dst, p)
}

// groundTruth walks the epoch's deliveries back from the base station and
// returns the bitset of sensors represented in its answer: every sender in
// the base station's inbox, then, transitively, every sender in a reached
// node's inbox that the node folded in — all of them at an M vertex, the
// tree partials only at a T vertex. Inboxes are complete when the walk runs,
// and a node's inbox holds exactly what it folded when it built its frame.
func (r *Runner[V, P, S, R]) groundTruth() []uint64 {
	if r.baseContrib == nil {
		r.baseContrib = make([]uint64, r.words)
	}
	seen := r.baseContrib
	clear(seen)
	stack := r.reach[:0]
	mark := func(in []int32, treeOnly bool) {
		for _, idx := range in {
			e := &r.frames[idx].env
			if treeOnly && !e.isTree {
				continue
			}
			if w, b := e.from/64, uint64(1)<<uint(e.from%64); seen[w]&b == 0 {
				seen[w] |= b
				stack = append(stack, int32(e.from))
			}
		}
	}
	mark(r.inbox[topo.Base], false)
	for len(stack) > 0 {
		u := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		mark(r.inbox[u], !r.state.IsM(u))
	}
	r.reach = stack
	return seen
}

// buildEnvelope assembles node v's outgoing partial result from its local
// result own and its inbox into the envelope of its arena slot, drawing
// every recycled object from the slot or the runner's scratch.
//
//td:hotpath
func (r *Runner[V, P, S, R]) buildEnvelope(epoch, v int, own P, slot int) {
	agg := r.cfg.Agg
	sc := &r.scratch
	in, out, f := r.inbox[v], &r.envs[slot], &r.frames[slot]

	if !r.state.IsM(v) {
		// Tree vertex: fold children's exact partials (only tree envelopes
		// can arrive — multi-path broadcasts are never incorporated by T
		// vertices, preserving Edge Correctness).
		p := own
		contrib := int64(1)
		for _, idx := range in {
			e := &r.frames[idx].env
			if !e.isTree {
				continue
			}
			p = agg.MergeTree(p, e.p)
			contrib += e.contribTree
		}
		p = agg.FinalizeTree(epoch, v, p)
		*out = envelope[P, S]{from: v, isTree: true, p: p, contribTree: contrib}
		return
	}

	// Multi-path vertex: start from the conversion of the node's own local
	// result, fuse incoming synopses, and convert incoming tree partials at
	// the tributary/delta boundary (§5, Figure 3). With memoization engaged,
	// conversions flow through the per-node caches: the own-base synopsis and
	// each boundary child's products are rebuilt only when their inputs
	// changed (see memo.go).
	var nm *nodeMemo[P, S]
	var s S
	batch := r.fuser != nil
	if batch {
		sc.fuseSrcs = sc.fuseSrcs[:0]
	}
	if r.memoOn {
		nm = &r.memoState[v]
		if !nm.ownValid || !r.memo.PartialEqual(nm.ownP, own) {
			nm.ownSyn = r.rec.ConvertInto(epoch, v, own, r.keptSyn(&nm.ownSyn, &nm.ownSynSet))
			nm.ownP = r.keepPartial(&nm.ownP, &nm.ownPSet, own)
			nm.ownValid = true
		}
		if batch {
			// FuseAll overwrites its accumulator, so the cached own-base
			// synopsis joins the source list instead of being copied first.
			s = r.keptSyn(&f.syn, &f.synSet)
			sc.fuseSrcs = append(sc.fuseSrcs, nm.ownSyn)
		} else {
			s = r.memo.CopySynopsisInto(r.keptSyn(&f.syn, &f.synSet), nm.ownSyn)
		}
	} else {
		s = r.convert(epoch, v, own, f)
		if batch {
			// s carries real content here: listing the accumulator among
			// the sources makes FuseAll fold it rather than overwrite it.
			sc.fuseSrcs = append(sc.fuseSrcs, s)
		}
	}
	cs := sc.skPool.get()
	cs.Reset()
	cs.AddCount(r.contribSeed(epoch), uint64(v), 1)
	if r.batchUnions {
		// Same accumulator-among-sources trick: direct AddCount insertions
		// into cs (below) survive the final one-pass union.
		sc.contribSrcs = append(sc.contribSrcs[:0], cs)
	}
	subtreeContrib := int64(1)
	shipNC := r.ncEpoch(epoch)
	topNC := sc.topNC[:0]
	minNC, ncValid := 0, false
	for _, idx := range in {
		e := &r.frames[idx].env
		if e.isTree {
			if nm != nil {
				be := nm.findOrCreate(int32(e.from))
				if !be.cValid || be.contribCount != e.contribTree {
					if be.contrib == nil {
						be.contrib = sketch.New(r.cfg.ContribK)
					}
					be.contrib.Reset()
					be.contrib.AddCount(r.contribSeed(epoch), uint64(e.from), e.contribTree)
					be.contribCount = e.contribTree
					be.cValid = true
				}
				if r.batchUnions {
					sc.contribSrcs = append(sc.contribSrcs, be.contrib)
				} else {
					cs.Union(be.contrib)
				}
				if !be.pValid || !r.memo.PartialEqual(be.p, e.p) {
					be.syn = r.rec.ConvertInto(epoch, e.from, e.p, r.keptSyn(&be.syn, &be.synSet))
					be.p = r.keepPartial(&be.p, &be.pSet, e.p)
					be.pValid = true
				}
				if batch {
					sc.fuseSrcs = append(sc.fuseSrcs, be.syn)
				} else {
					s = agg.Fuse(s, be.syn)
				}
			} else {
				if conv := r.convert(epoch, e.from, e.p, &r.frames[idx]); batch {
					sc.fuseSrcs = append(sc.fuseSrcs, conv)
				} else {
					s = agg.Fuse(s, conv)
				}
				cs.AddCount(r.contribSeed(epoch), uint64(e.from), e.contribTree)
			}
			subtreeContrib += e.contribTree
		} else {
			if batch {
				sc.fuseSrcs = append(sc.fuseSrcs, e.s)
			} else {
				s = agg.Fuse(s, e.s)
			}
			if r.batchUnions {
				sc.contribSrcs = append(sc.contribSrcs, e.contribSk)
			} else {
				cs.Union(e.contribSk)
			}
			if shipNC && e.ncValid {
				topNC = mergeTopK(topNC, e.topNC, r.topKCap())
				if !ncValid || e.minNC < minNC {
					minNC = e.minNC
				}
				ncValid = true
			}
		}
	}
	if batch {
		s = r.fuser.FuseAll(s, sc.fuseSrcs)
	}
	if r.batchUnions && len(sc.contribSrcs) > 1 {
		sketch.UnionAllInto(cs, sc.contribSrcs...)
	}
	// A frontier M vertex roots a unique all-T tree subtree (§4.2 footnote
	// 3) and reports how many of its nodes did not contribute.
	if r.trackNC && r.state.IsFrontierM(v) {
		nc := r.state.SubtreeSize(v) - int(subtreeContrib)
		if nc < 0 {
			nc = 0
		}
		r.lastNC[v] = nc
		if shipNC {
			topNC = insertTopK(topNC, nc, r.topKCap())
			if !ncValid || nc < minNC {
				minNC = nc
			}
			ncValid = true
		}
	}
	*out = envelope[P, S]{
		from: v, isTree: false, s: s,
		contribSk: cs, topNC: topNC, minNC: minNC, ncValid: ncValid,
	}
}

// keptSyn returns *dst, a recycled synopsis its caller keeps (a frame slot's
// or a memo entry's), allocating it on first use.
func (r *Runner[V, P, S, R]) keptSyn(dst *S, set *bool) S {
	if !*set {
		*dst, *set = r.rec.NewSynopsis(), true
	}
	return *dst
}

// convert applies the tree→multi-path conversion of owner's partial,
// through the recycling fast path into owner's frame slot f when the
// aggregate offers one. The result lives until the slot's next build or
// conversion.
func (r *Runner[V, P, S, R]) convert(epoch, owner int, p P, f *frameSlot[P, S]) S {
	if r.rec != nil {
		return r.rec.ConvertInto(epoch, owner, p, r.keptSyn(&f.syn, &f.synSet))
	}
	return r.cfg.Agg.Convert(epoch, owner, p)
}

// encodeFrame serializes v's outgoing envelope into the level's frame slot
// using the runner's encode scratch. The slot buffer persists until the
// level's deliveries and decodes are done.
//
//td:hotpath
func (r *Runner[V, P, S, R]) encodeFrame(epoch int, env *envelope[P, S], slot *frameSlot[P, S]) {
	sc := &r.scratch
	we := wire.Envelope{From: uint32(env.from)}
	if env.isTree {
		we.Kind = wire.KindTree
		we.Contrib = env.contribTree
		sc.payloadBuf = r.cfg.Agg.AppendPartial(sc.payloadBuf[:0], env.p)
	} else {
		we.Kind = wire.KindSynopsis
		if cap(slot.buf) < r.maxSynFrame {
			slot.buf = make([]byte, 0, r.maxSynFrame)
		}
		sc.contribBuf = env.contribSk.AppendWire(sc.contribBuf[:0])
		we.ContribSketch = sc.contribBuf
		we.TopNC = env.topNC
		we.MinNC = env.minNC
		we.NCValid = env.ncValid
		sc.payloadBuf = r.cfg.Agg.AppendSynopsis(sc.payloadBuf[:0], env.s)
	}
	we.Payload = sc.payloadBuf
	slot.buf = wire.AppendEnvelope(slot.buf[:0], &we)
	slot.ncEpoch = r.ncEpoch(epoch)
}

// decodeFrame reconstructs the slot's envelope from its received bytes,
// fully overwriting every field (the slot's envelope persists for the whole
// epoch — receivers and the base station reference it by index — and is
// recycled only by the next epoch's build/decode of the same sender). The
// runner produced the frame itself, so a decode failure is a codec bug, not
// a network condition — it panics rather than silently dropping data.
//
//td:hotpath
func (r *Runner[V, P, S, R]) decodeFrame(f *frameSlot[P, S]) {
	sc := &r.scratch
	dst := &f.env
	we, err := sc.dec.Decode(f.buf)
	if err != nil {
		panic(fmt.Sprintf("runner: corrupt frame: %v", err))
	}
	var zeroP P
	var zeroS S
	dst.from = int(we.From)
	switch we.Kind {
	case wire.KindTree:
		var p P
		if r.prec != nil {
			if !f.decSet {
				f.dec, f.decSet = r.prec.NewPartial(), true
			}
			p, err = r.prec.DecodePartialInto(we.Payload, f.dec)
		} else {
			p, err = r.cfg.Agg.DecodePartial(we.Payload)
		}
		if err != nil {
			panic(fmt.Sprintf("runner: corrupt tree partial from %d: %v", dst.from, err))
		}
		dst.isTree = true
		dst.p = p
		dst.contribTree = we.Contrib
		dst.s = zeroS
		dst.contribSk = nil
		dst.topNC = nil
		dst.minNC = 0
		dst.ncValid = false
	case wire.KindSynopsis:
		var s S
		if r.rec != nil {
			s, err = r.rec.DecodeSynopsisInto(we.Payload, r.keptSyn(&f.decSyn, &f.decSynSet))
		} else {
			s, err = r.cfg.Agg.DecodeSynopsis(we.Payload)
		}
		if err != nil {
			panic(fmt.Sprintf("runner: corrupt synopsis from %d: %v", dst.from, err))
		}
		cs := sc.skPool.get()
		if err := cs.LoadWire(we.ContribSketch); err != nil {
			panic(fmt.Sprintf("runner: corrupt contributing sketch from %d: %v", dst.from, err))
		}
		dst.isTree = false
		dst.s = s
		dst.contribSk = cs
		dst.topNC = we.TopNC
		dst.minNC = we.MinNC
		dst.ncValid = we.NCValid
		dst.p = zeroP
		dst.contribTree = 0
	}
}

// deliver transmits v's already-encoded frame: unicast with retransmissions
// toward the tree parent for T vertices, a single broadcast up the rings
// for M vertices. The frame is encoded once per node per epoch — the very
// same bytes are offered to every parent of a broadcast. Energy accounting
// charges the encoded byte length of every radio transmission; a lost frame
// is dropped whole. Successful deliveries are recorded as arrivals (decoded
// once and referenced by receiver inboxes in exactly this order).
//
//td:hotpath
func (r *Runner[V, P, S, R]) deliver(epoch, v, slot int, env *envelope[P, S]) {
	frame := r.frames[slot].buf
	level := r.schedLevel[v]
	if env.isTree {
		parent := r.cfg.Tree.Parent[v]
		if parent == -1 {
			return
		}
		if r.down[parent] {
			// A dead parent never acknowledges: the sender (which cannot
			// know) spends the energy of every attempt and loses them all.
			// The transport is not consulted — a dead node must not see
			// (or account) receive traffic.
			for attempt := 0; attempt <= r.cfg.TreeRetransmits; attempt++ {
				r.Stats.AddTxBytes(v, level, len(frame))
				r.Stats.AddLoss(v)
			}
			return
		}
		for attempt := 0; attempt <= r.cfg.TreeRetransmits; attempt++ {
			r.Stats.AddTxBytes(v, level, len(frame))
			if r.transport.Deliver(epoch, attempt, v, parent, frame) {
				r.frames[slot].needed = true
				r.arrivals = append(r.arrivals, arrival{to: int32(parent), frame: int32(slot)})
				break
			}
			r.Stats.AddLoss(v)
		}
		return
	}
	r.Stats.AddTxBytes(v, level, len(frame)) // one broadcast, many potential receivers
	for _, u := range r.cfg.Rings.Up[v] {
		if !r.state.IsM(u) {
			continue // T vertices ignore synopses (Edge Correctness)
		}
		if r.down[u] {
			r.Stats.AddLoss(v) // dead receiver: the broadcast leg is lost
			continue
		}
		if r.transport.Deliver(epoch, 0, v, u, frame) {
			r.frames[slot].needed = true
			r.arrivals = append(r.arrivals, arrival{to: int32(u), frame: int32(slot)})
		} else {
			r.Stats.AddLoss(v)
		}
	}
}

func popcount(b []uint64) int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// RMSError computes the paper's relative root-mean-square error over a set
// of answers: (1/V)·sqrt(Σ(Vt−V)²/T) — §7.3 — for scalar answers. It lives
// here for convenience of scalar runners; richer statistics are in
// internal/stats.
func RMSError(answers []float64, truth []float64) float64 {
	if len(answers) == 0 || len(answers) != len(truth) {
		return math.NaN()
	}
	sum := 0.0
	meanV := 0.0
	for i := range answers {
		d := answers[i] - truth[i]
		sum += d * d
		meanV += truth[i]
	}
	meanV /= float64(len(truth))
	if meanV == 0 {
		return math.NaN()
	}
	return math.Sqrt(sum/float64(len(answers))) / meanV
}
