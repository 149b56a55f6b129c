package runner

import "tributarydelta/internal/sketch"

// Epoch-over-epoch synopsis memoization.
//
// A multi-path node's outgoing frame is a pure function of (a) the hash
// seeds of the epoch's reseeding period, (b) the node's own local partial,
// and (c) the envelopes that reached it. With the sketch hashes fixed within
// a period (aggregate.SynopsisMemoizer) those inputs change far more slowly
// than once per epoch: a steady-state Count's reading never changes, and a
// loss realization that delivers the same sender set twice in a row —
// certain under zero loss, common under light loss — reproduces last
// epoch's synopsis bit for bit.
//
// The engine exploits this at three grains:
//
//  1. Own-base cache: each node's converted base synopsis is cached and
//     rebuilt only when its partial changes — steady-state Count and
//     slowly-changing Sum skip AddCount's binomial simulation entirely.
//  2. Boundary cache: an M vertex caches, per tree child, the converted
//     synopsis (keyed by the child's partial) and the contributing-Count
//     insertion (keyed by the child's contributing count) — the §5
//     conversion function runs only when the tributary's value moves.
//  3. Frame reuse: a node whose period keys, own partial, sender set,
//     boundary inputs and synopsis senders are all unchanged ("clean") skips
//     fusion and encoding outright and re-broadcasts last epoch's frame byte
//     for byte — the frame carries no epoch. A frame is reused only on an
//     epoch of the kind it was built for: §4.2 statistics ride on decision
//     epochs alone (Runner.ncEpoch), so a decision epoch rebuilds the frames
//     of the epochs before it, and the epoch after rebuilds again.
//     Cleanliness is inductive — a synopsis input is unchanged exactly when
//     its sender was clean this epoch — and levels run deepest-first, so a
//     sender's verdict is always ready before its receivers ask.
//
// Everything here is a pure cache: answers, frame bytes and network.Stats
// accounting are bit-identical with memoization on or off (Config.noMemo) —
// pinned by TestMemoMatchesNoMemo and the golden matrix. Ground truth is not
// a frame product at all: the base station's walk over the epoch's actual
// inboxes (Runner.groundTruth) counts a reused frame's sender like any
// other. Partials the caches keep across epochs are copies in memo-owned
// storage, because a recycled partial is rebuilt the next epoch.
// Adaptation switches relabel vertices and therefore bust every cache
// (bustMemo); reseeding-period rollovers bust the grain they touch.

// boundaryEntry caches one tree child's conversion products at an M vertex.
type boundaryEntry[P, S any] struct {
	from int32
	// pValid marks syn as Convert(from, p); synSet and pSet mark syn and
	// the memo-owned copy p allocated.
	pValid bool
	synSet bool
	pSet   bool
	// cValid marks contrib as the (from, contribCount) insertion.
	cValid bool
	p      P
	syn    S
	// contrib holds only this child's contributing-Count insertion, ready to
	// OR into the node's outgoing piggyback sketch.
	contrib      *sketch.Sketch
	contribCount int64
}

// nodeMemo is one node's cross-epoch memoization state.
type nodeMemo[P, S any] struct {
	// clean reports whether this node reused its frame in the current epoch
	// — read by next level's receivers to decide their own cleanliness.
	clean bool
	// prevValid marks that the node's frame slot holds a complete frame
	// from an earlier epoch (the reuse candidate).
	prevValid bool
	// ownValid marks ownSyn as the conversion of ownP; ownSynSet and
	// ownPSet mark ownSyn and the memo-owned copy ownP allocated.
	ownValid  bool
	ownSynSet bool
	ownPSet   bool
	ownP      P
	ownSyn    S
	// prevSenders is the inbox sender sequence of the last built epoch.
	prevSenders []int32
	boundary    []boundaryEntry[P, S]
}

// find returns the boundary entry for child `from`, or nil.
func (nm *nodeMemo[P, S]) find(from int32) *boundaryEntry[P, S] {
	for i := range nm.boundary {
		if nm.boundary[i].from == from {
			return &nm.boundary[i]
		}
	}
	return nil
}

// findOrCreate returns the boundary entry for child `from`, creating it on
// first contact. The child set of an M vertex is bounded by its static tree
// children, so the list stops growing after every child has gotten one frame
// through.
func (nm *nodeMemo[P, S]) findOrCreate(from int32) *boundaryEntry[P, S] {
	if be := nm.find(from); be != nil {
		return be
	}
	nm.boundary = append(nm.boundary, boundaryEntry[P, S]{from: from})
	return &nm.boundary[len(nm.boundary)-1]
}

// beginMemoEpoch refreshes the period keys and busts the cache grains whose
// key rolled over. Caches survive arbitrary epoch orderings: validity
// depends only on key equality (conversions are pure functions of the key),
// never on epochs being consecutive.
func (r *Runner[V, P, S, R]) beginMemoEpoch(epoch int) {
	r.memoOn = r.memo != nil && r.rec != nil && !r.cfg.noMemo
	if !r.memoOn {
		return
	}
	aggKey := r.memo.SynopsisEpochKey(epoch)
	contribKey := r.contribEpochKey(epoch)
	r.keysStable = r.memoPrimed && aggKey == r.prevAggKey && contribKey == r.prevContribKey
	if r.memoPrimed && aggKey != r.prevAggKey {
		for i := range r.memoState {
			nm := &r.memoState[i]
			nm.ownValid = false
			for b := range nm.boundary {
				nm.boundary[b].pValid = false
			}
		}
	}
	if r.memoPrimed && contribKey != r.prevContribKey {
		for i := range r.memoState {
			nm := &r.memoState[i]
			for b := range nm.boundary {
				nm.boundary[b].cValid = false
			}
		}
	}
	r.prevAggKey, r.prevContribKey = aggKey, contribKey
	r.memoPrimed = true
}

// bustMemo invalidates every cache — called when an adaptation decision
// relabels vertices (conversion owners, boundary sets and frame contents all
// shift under the new labeling). Allocations are kept.
func (r *Runner[V, P, S, R]) bustMemo() {
	if r.memo == nil {
		return
	}
	for i := range r.memoState {
		nm := &r.memoState[i]
		nm.clean = false
		nm.prevValid = false
		nm.ownValid = false
		for b := range nm.boundary {
			nm.boundary[b].pValid = false
			nm.boundary[b].cValid = false
		}
	}
}

// tryReuseFrame is the clean-path check for node v, whose local result this
// epoch is own: if every input of v's outgoing frame is provably unchanged
// since the last built epoch, and that epoch shipped §4.2 statistics exactly
// when this one does, the frame bytes are reused as they are, and the whole
// build+fuse+encode pipeline is skipped. Returns false — after recording v
// as not clean — whenever anything moved.
func (r *Runner[V, P, S, R]) tryReuseFrame(epoch, v, slot int, own P) bool {
	nm := &r.memoState[v]
	if !r.state.IsM(v) {
		// T vertices take the plain path: their build is a cheap exact fold,
		// and their boundary products are cached by the M receiver instead.
		nm.clean = false
		return false
	}
	in := r.inbox[v]
	clean := r.keysStable && nm.prevValid && nm.ownValid &&
		r.frames[slot].ncEpoch == r.ncEpoch(epoch) &&
		r.memo.PartialEqual(nm.ownP, own) && len(in) == len(nm.prevSenders)
	if clean {
		for i, idx := range in {
			e := &r.frames[idx].env
			if int32(e.from) != nm.prevSenders[i] {
				clean = false
				break
			}
			if e.isTree {
				be := nm.find(int32(e.from))
				if be == nil || !be.pValid || !be.cValid ||
					!r.memo.PartialEqual(be.p, e.p) || be.contribCount != e.contribTree {
					clean = false
					break
				}
			} else if !r.memoState[e.from].clean {
				clean = false
				break
			}
		}
	}
	nm.clean = clean
	return clean
}

// recordMemo captures node v's inbox sender sequence after a full (dirty)
// build, making v a reuse candidate for the next epoch.
func (r *Runner[V, P, S, R]) recordMemo(v int) {
	nm := &r.memoState[v]
	nm.clean = false
	if !r.state.IsM(v) {
		return
	}
	nm.prevSenders = nm.prevSenders[:0]
	for _, idx := range r.inbox[v] {
		nm.prevSenders = append(nm.prevSenders, int32(r.frames[idx].env.from))
	}
	nm.prevValid = true
}
