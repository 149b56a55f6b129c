// Package aggregate defines the per-aggregate plumbing the Tributary-Delta
// framework needs (§5): a tree algorithm over exact partial results, a
// multi-path algorithm over duplicate-insensitive synopses (the SG/SF/SE
// decomposition of synopsis diffusion, §2), and the conversion function that
// turns a tree partial result into a synopsis at the tributary/delta
// boundary. It provides the simple aggregates of §5 — Count, Sum, Min, Max,
// Average — whose conversion functions are straightforward; Frequent Items
// (§6) lives in internal/freq and Uniform Sample in internal/sample.
package aggregate

import "tributarydelta/internal/wire"

// Aggregate is the contract between an aggregate and the collection-round
// runner. V is the type of one sensor's local reading, P the tree partial
// result, S the multi-path synopsis, and R the query answer produced at the
// base station.
//
// Semantics required by the framework:
//
//   - MergeTree must be associative and commutative over partials, so that
//     a node may fold its children's partials into its own in any order.
//   - Fuse must be associative, commutative and duplicate-insensitive
//     (idempotent over repeated copies of the same synopsis) — the synopsis
//     fusion property that makes multi-path routing safe (§2).
//   - Convert(epoch, owner, p) must produce a synopsis that the multi-path
//     scheme "equates with" p (§5): fusing it is equivalent to having the
//     owner's subtree contribute directly. The owner identifies the unique
//     tree sender, keeping conversion deterministic and hence idempotent
//     under multi-path replication.
//   - Implementations must not modify `in` arguments; they may mutate and
//     return `acc`.
//
// Every aggregate also supplies a partial codec and a synopsis codec: the
// runner transmits real encoded bytes (framed by internal/wire's Envelope),
// and all message-size accounting is derived from encoded lengths — there
// is no separate "estimated words" path that could drift from reality. The
// codecs must be lossless (decode(encode(x)) is semantically identical to
// x) and deterministic (equal values encode to equal bytes); any fixed
// parameters a decoder needs (sketch bitmap counts, sample capacity) come
// from the aggregate's own configuration, mirroring a deployment-wide query
// plan. Decoders must return an error — never panic — on malformed or
// truncated input.
type Aggregate[V, P, S, R any] interface {
	// Name identifies the aggregate in reports.
	Name() string
	// Local evaluates the query locally (§2's local result).
	Local(epoch, node int, v V) P
	// MergeTree folds a child's partial into an accumulator partial.
	MergeTree(acc, in P) P
	// FinalizeTree post-processes a node's folded partial before it is
	// transmitted. Most aggregates return p unchanged; the frequent items
	// tree algorithm applies its precision-gradient decrement here
	// (Algorithm 1, step 3), which must run exactly once per node after
	// all children are folded.
	FinalizeTree(epoch, node int, p P) P
	// AppendPartial appends the wire encoding of a tree partial to dst
	// and returns the extended buffer (append-style: zero allocation when
	// dst has capacity).
	AppendPartial(dst []byte, p P) []byte
	// DecodePartial parses a tree partial from exactly the bytes
	// AppendPartial produced.
	DecodePartial(data []byte) (P, error)
	// Convert is the tree→multi-path conversion function.
	Convert(epoch, owner int, p P) S
	// Fuse is the synopsis fusion (SF) function.
	Fuse(acc, in S) S
	// AppendSynopsis appends the wire encoding of a synopsis to dst.
	AppendSynopsis(dst []byte, s S) []byte
	// DecodeSynopsis parses a synopsis from exactly the bytes
	// AppendSynopsis produced.
	DecodeSynopsis(data []byte) (S, error)
	// EvalBase produces the answer at the base station from the tree
	// partials received directly from T children (kept exact — the source
	// of the zero approximation error at low loss) and the synopses
	// received from the delta region.
	EvalBase(treeParts []P, syns []S) R
	// Exact computes the ground-truth answer over all readings, for error
	// measurement by experiments.
	Exact(vs []V) R
}

// SynopsisRecycler is an optional Aggregate extension: aggregates whose
// synopses can be rebuilt in place implement it, and the epoch engine then
// recycles synopses through per-worker pools instead of allocating one per
// Convert and per decoded frame — the difference between thousands of
// allocations per epoch and none.
//
// Semantics: NewSynopsis returns a fresh reusable synopsis; ConvertInto and
// DecodeSynopsisInto must leave dst bit-identical to what Convert and
// DecodeSynopsis would have returned (dst's prior contents are fully
// overwritten, never folded in). The returned synopsis is dst itself.
type SynopsisRecycler[P, S any] interface {
	// NewSynopsis allocates one pool entry.
	NewSynopsis() S
	// ConvertInto is Convert writing into a recycled synopsis.
	ConvertInto(epoch, owner int, p P, dst S) S
	// DecodeSynopsisInto is DecodeSynopsis writing into a recycled synopsis.
	DecodeSynopsisInto(data []byte, dst S) (S, error)
}

// SynopsisMemoizer is an optional extension alongside SynopsisRecycler:
// aggregates whose conversion is a pure function of (seed, owner, partial)
// within a hash-reseeding window implement it, and the epoch engine then
// caches each node's converted base synopsis across epochs, skipping the
// sketch insertion work (for Sum, the Considine binomial simulation)
// entirely while the node's partial holds still.
//
// Semantics: SynopsisEpochKey(e1) == SynopsisEpochKey(e2) must guarantee
// that Convert(e1, o, p) and Convert(e2, o, p) are bit-identical for every
// (o, p); PartialEqual(a, b) must guarantee Convert(e, o, a) and
// Convert(e, o, b) are bit-identical; CopySynopsisInto must leave dst
// bit-identical to src (fully overwritten) and return dst. Local may depend
// on the epoch only through SynopsisEpochKey(epoch) — the engine busts its
// own-reading cache whenever the key rolls over, so key-periodic randomness
// (quantile sample ranks, say) is sound, but any per-epoch dependence inside
// a key window would make the cache serve stale readings.
type SynopsisMemoizer[P, S any] interface {
	// SynopsisEpochKey identifies the epoch's hash-reseeding window; cached
	// conversions are invalidated when it changes.
	SynopsisEpochKey(epoch int) uint64
	// PartialEqual reports whether two partials convert identically.
	PartialEqual(a, b P) bool
	// CopySynopsisInto overwrites dst with src and returns dst.
	CopySynopsisInto(dst, src S) S
}

// SynopsisBatchFuser is an optional Aggregate extension: aggregates whose
// fusion is commutative, associative and duplicate-insensitive at the bit
// level (plain sketch OR — Count, Sum, Average) implement it, and the epoch
// engine then gathers a node's incoming synopses and fuses them in one fused
// multi-sketch pass (sketch.UnionAllInto) instead of one shape-checked Fuse
// dispatch per synopsis.
//
// Semantics: FuseAll must leave acc bit-identical to what the sequential
// fold acc = Fuse(acc, in[0]); acc = Fuse(acc, in[1]); … would, except that
// acc is overwritten with the union of in — acc's prior contents fold in
// only when acc itself appears among in (mirroring sketch.UnionAllInto, so a
// caller that wants the fold passes acc as in[0]). in must not be modified;
// the returned synopsis is acc itself. Implementations must be safe for
// concurrent calls on distinct accumulators, so no aggregate-owned scratch.
type SynopsisBatchFuser[S any] interface {
	// FuseAll overwrites acc with the fusion of every synopsis in `in`.
	FuseAll(acc S, in []S) S
}

// SynopsisSizer is an optional Aggregate extension: aggregates whose
// synopsis encoding has a fixed upper bound (the pure-sketch ones — Count,
// Sum, Average) report it, and the epoch engine pre-sizes its encode scratch
// and frame buffers to it. Sketches travel byte-trimmed, so a synopsis can be
// wider this epoch than in any epoch before; sized to the bound up front, the
// steady-state loop still never regrows a buffer.
type SynopsisSizer interface {
	// MaxSynopsisBytes bounds len(AppendSynopsis(nil, s)) over every s.
	MaxSynopsisBytes() int
}

// PartialWords returns the message size of a tree partial in 32-bit words,
// measured from its wire encoding — the only sanctioned way to cost a
// partial.
func PartialWords[V, P, S, R any](a Aggregate[V, P, S, R], p P) int {
	return wire.Words(len(a.AppendPartial(nil, p)))
}

// SynopsisWords returns the message size of a synopsis in 32-bit words,
// measured from its wire encoding.
func SynopsisWords[V, P, S, R any](a Aggregate[V, P, S, R], s S) int {
	return wire.Words(len(a.AppendSynopsis(nil, s)))
}
