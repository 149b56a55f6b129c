package runner

// Per-aggregate hostile-payload fuzzers: the UDP receive chain is datagram →
// envelope → aggregate payload, and each layer faces attacker-controlled
// bytes. FuzzDecodePartial and FuzzDecodeSynopsis push arbitrary bytes
// through every registered aggregate's payload decoder — the invariants are
// no panic, no allocation proportional to a hostile length field, and
// errors that stay errors: after a failed decode the same aggregate
// instance must still decode a known-good payload.

import (
	"bytes"
	"testing"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/freq"
	"tributarydelta/internal/quantile"
	"tributarydelta/internal/topo"
	"tributarydelta/internal/wire"
)

// fuzzDecoder pairs an aggregate's payload decoder with a known-good
// encoding used both as corpus seed and as the post-hostile-input probe.
type fuzzDecoder struct {
	name   string
	good   []byte
	decode func([]byte) error
}

// partialDecoders covers every aggregate family's tree-partial codec.
func partialDecoders(f fixture) []fuzzDecoder {
	seed := uint64(11)
	cnt := aggregate.NewCount(seed)
	sum := aggregate.NewSum(seed)
	avg := aggregate.NewAverage(seed)
	mom := aggregate.NewMoments(seed)
	smp := aggregate.NewUniformSample(seed, 16)
	fa := freq.NewAgg(f.tr, freq.MinTotalLoad{Epsilon: 0.01, D: topo.TreeDominationFactor(f.tr, 0.05)},
		0.01, freq.DefaultParams(seed, 0.01, 12))
	qa := quantile.NewAgg(f.tr, seed, 32, 16, nil)
	return []fuzzDecoder{
		{"count", cnt.AppendPartial(nil, 12345),
			func(b []byte) error { _, err := cnt.DecodePartial(b); return err }},
		{"sum", sum.AppendPartial(nil, 3.25),
			func(b []byte) error { _, err := sum.DecodePartial(b); return err }},
		{"average", avg.AppendPartial(nil, avg.Local(0, 1, 2.5)),
			func(b []byte) error { _, err := avg.DecodePartial(b); return err }},
		{"moments", mom.AppendPartial(nil, mom.Local(0, 1, 1.5)),
			func(b []byte) error { _, err := mom.DecodePartial(b); return err }},
		{"sample", smp.AppendPartial(nil, smp.Local(0, 1, 7.0)),
			func(b []byte) error { _, err := smp.DecodePartial(b); return err }},
		{"min", aggregate.Min{}.AppendPartial(nil, 1.0),
			func(b []byte) error { _, err := aggregate.Min{}.DecodePartial(b); return err }},
		{"freq", fa.AppendPartial(nil, fa.Local(0, 1, []freq.Item{3, 5})),
			func(b []byte) error { _, err := fa.DecodePartial(b); return err }},
		{"quantile", qa.AppendPartial(nil, qa.Local(0, 1, 4.5)),
			func(b []byte) error { _, err := qa.DecodePartial(b); return err }},
	}
}

// synopsisDecoders covers every aggregate family's synopsis codec.
func synopsisDecoders(f fixture) []fuzzDecoder {
	seed := uint64(11)
	cnt := aggregate.NewCount(seed)
	sum := aggregate.NewSum(seed)
	avg := aggregate.NewAverage(seed)
	mom := aggregate.NewMoments(seed)
	smp := aggregate.NewUniformSample(seed, 16)
	fa := freq.NewAgg(f.tr, freq.MinTotalLoad{Epsilon: 0.01, D: topo.TreeDominationFactor(f.tr, 0.05)},
		0.01, freq.DefaultParams(seed, 0.01, 12))
	qa := quantile.NewAgg(f.tr, seed, 32, 16, nil)
	return []fuzzDecoder{
		{"count", cnt.AppendSynopsis(nil, cnt.Convert(0, 1, 5)),
			func(b []byte) error { _, err := cnt.DecodeSynopsis(b); return err }},
		{"sum", sum.AppendSynopsis(nil, sum.Convert(0, 1, 2.5)),
			func(b []byte) error { _, err := sum.DecodeSynopsis(b); return err }},
		{"average", avg.AppendSynopsis(nil, avg.Convert(0, 1, avg.Local(0, 1, 2.5))),
			func(b []byte) error { _, err := avg.DecodeSynopsis(b); return err }},
		{"moments", mom.AppendSynopsis(nil, mom.Convert(0, 1, mom.Local(0, 1, 1.5))),
			func(b []byte) error { _, err := mom.DecodeSynopsis(b); return err }},
		{"sample", smp.AppendSynopsis(nil, smp.Convert(0, 1, smp.Local(0, 1, 7.0))),
			func(b []byte) error { _, err := smp.DecodeSynopsis(b); return err }},
		{"max", aggregate.Max{}.AppendSynopsis(nil, 2.0),
			func(b []byte) error { _, err := aggregate.Max{}.DecodeSynopsis(b); return err }},
		{"freq", fa.AppendSynopsis(nil, fa.Convert(0, 1, fa.Local(0, 1, []freq.Item{3, 5}))),
			func(b []byte) error { _, err := fa.DecodeSynopsis(b); return err }},
		{"quantile", qa.AppendSynopsis(nil, qa.Convert(0, 1, qa.Local(0, 1, 4.5))),
			func(b []byte) error { _, err := qa.DecodeSynopsis(b); return err }},
	}
}

// recycledDecoders covers every aggregate implementing
// aggregate.PartialRecycler: each check decodes a payload both ways —
// DecodePartial, and DecodePartialInto a destination kept dirty across
// inputs (by earlier decodes, failed ones included) — and fails unless both
// accept or both reject, and what they accept re-encodes identically.
func recycledDecoders(f fixture) []func(*testing.T, []byte) {
	qa := quantile.NewAgg(f.tr, 11, 32, 16, nil)
	qaDst := qa.MergeTree(qa.Local(0, 1, 4.5), qa.Local(0, 2, -1))
	return []func(*testing.T, []byte){
		func(t *testing.T, data []byte) {
			checkDecodeInto(t, "quantile", data, qa.DecodePartial, qa.DecodePartialInto, qa.AppendPartial, qaDst)
		},
	}
}

// checkDecodeInto holds a recycling decoder to its allocating twin on one
// payload.
func checkDecodeInto[P any](t *testing.T, name string, data []byte,
	decode func([]byte) (P, error), into func([]byte, P) (P, error), enc func([]byte, P) []byte, dst P) {
	t.Helper()
	want, werr := decode(data)
	got, gerr := into(data, dst)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: DecodePartial error %v, DecodePartialInto error %v", name, werr, gerr)
	}
	if werr == nil && !bytes.Equal(enc(nil, got), enc(nil, want)) {
		t.Fatalf("%s: DecodePartialInto on a dirty destination re-encodes to %x, DecodePartial to %x",
			name, enc(nil, got), enc(nil, want))
	}
}

// fuzzAggregatePayloads is the shared body: treat the input as a full UDP
// datagram, peel the framing and envelope like a shard would, and feed both
// the extracted payloads and the raw input to every aggregate decoder (and
// every recycled-destination check). After each hostile decode, the same
// instance must still accept its known-good encoding — a decoder error may
// never be sticky.
func fuzzAggregatePayloads(f *testing.F, decoders []fuzzDecoder, checks ...func(*testing.T, []byte)) {
	for _, d := range decoders {
		f.Add(wire.AppendBatchFrame(wire.AppendDatagramBatch(nil, 1, 0), 5, wire.AppendEnvelope(nil, &wire.Envelope{
			Kind: wire.KindTree, From: 2, Contrib: 1, Payload: d.good,
		})))
		f.Add(d.good)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(wire.AppendUvarint(nil, 1<<40))
	var dec wire.Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads := [][]byte{data}
		if b, err := wire.DecodeDatagramBatch(data); err == nil {
			for b.Next() {
				dec.Reset()
				if env, err := dec.Decode(b.Frame()); err == nil {
					payloads = append(payloads, env.Payload, env.ContribSketch)
				}
			}
		}
		for _, fd := range decoders {
			for _, p := range payloads {
				_ = fd.decode(p) // must not panic, whatever p is
			}
			if err := fd.decode(fd.good); err != nil {
				t.Fatalf("%s: decoder poisoned by hostile input, rejects known-good payload: %v", fd.name, err)
			}
		}
		for _, check := range checks {
			for _, p := range payloads {
				check(t, p)
			}
		}
	})
}

// FuzzDecodePartial drives arbitrary bytes through every aggregate's tree
// partial decoder, framed as a datagram-borne envelope and raw, and through
// every recycling partial decoder into a dirty destination.
func FuzzDecodePartial(f *testing.F) {
	fx := newFixture(11, 60)
	fuzzAggregatePayloads(f, partialDecoders(fx), recycledDecoders(fx)...)
}

// FuzzDecodeSynopsis drives arbitrary bytes through every aggregate's
// synopsis decoder, framed as a datagram-borne envelope and raw.
func FuzzDecodeSynopsis(f *testing.F) { fuzzAggregatePayloads(f, synopsisDecoders(newFixture(11, 60))) }
