package quantile

import (
	"bytes"
	"testing"

	"tributarydelta/internal/aggregate"
)

// Compile-time: the quantiles aggregate offers both recycling extensions and
// the batch fuser the epoch engine resolves.
var (
	_ aggregate.PartialRecycler[float64, *Partial]    = (*Agg)(nil)
	_ aggregate.SynopsisRecycler[*Partial, *Synopsis] = (*Agg)(nil)
	_ aggregate.SynopsisBatchFuser[*Synopsis]         = (*Agg)(nil)
)

// dirtyPartial returns a recycled partial holding unrelated content.
func dirtyPartial(a *Agg) *Partial {
	d := a.NewPartial()
	d = a.LocalInto(30, 7, 1e9, d)
	for node := 8; node < 20; node++ {
		d = a.MergeTree(d, a.Local(30, node, float64(-node)))
	}
	return d
}

// TestPartialRecyclerMatchesAllocating pins the partial-recycler contract:
// LocalInto, DecodePartialInto, CopyPartialInto and the in-place
// MergeTree/FinalizeTree on recycled partials produce exactly the bytes the
// allocating path does.
func TestPartialRecyclerMatchesAllocating(t *testing.T) {
	a, tree := buildAgg(t, 4, 8, Uniform(0.3, 3))
	enc := func(p *Partial) []byte { return a.AppendPartial(nil, p) }
	if got, want := enc(a.LocalInto(2, 5, 3.5, dirtyPartial(a))), enc(a.Local(2, 5, 3.5)); !bytes.Equal(got, want) {
		t.Fatalf("LocalInto = %x, Local = %x", got, want)
	}
	// A subtree fold on a recycled accumulator vs on fresh partials built
	// the way the tree used to: Local, then a fresh Merge per child.
	for _, v := range tree.PostOrder() {
		if !tree.InTree(v) || v == 0 || len(tree.Children[v]) == 0 {
			continue
		}
		acc := a.LocalInto(2, v, float64(v%4), dirtyPartial(a))
		ref := a.Local(2, v, float64(v%4))
		for _, c := range tree.Children[v] {
			child := a.Local(2, c, float64(c%4))
			for g := 0; g < 5; g++ {
				child = a.MergeTree(child, a.Local(2, 100+g, float64(g)))
			}
			acc = a.MergeTree(acc, child)
			ref = &Partial{Sum: refMerge(ref.Sum, child.Sum), Smp: ref.Smp}
			ref.Smp.Merge(child.Smp)
		}
		acc = a.FinalizeTree(2, v, acc)
		ref = a.FinalizeTree(2, v, ref)
		if !bytes.Equal(enc(acc), enc(ref)) {
			t.Fatalf("node %d: recycled fold %x, reference %x", v, enc(acc), enc(ref))
		}
		wire := enc(acc)
		got, err := a.DecodePartialInto(wire, dirtyPartial(a))
		if err != nil || !bytes.Equal(enc(got), wire) {
			t.Fatalf("node %d: DecodePartialInto = %v; want the bytes back", v, err)
		}
		if got := a.CopyPartialInto(dirtyPartial(a), acc); !bytes.Equal(enc(got), wire) || !a.PartialEqual(got, acc) {
			t.Fatalf("node %d: CopyPartialInto not bit-identical to its source", v)
		}
		if _, err := a.DecodePartialInto(wire[:len(wire)-1], dirtyPartial(a)); err == nil {
			t.Fatalf("node %d: truncated partial accepted", v)
		}
	}
}

// TestFuseAllMatchesSequentialFuse pins the batch-fuser contract: FuseAll
// into a dirty accumulator equals the sequential Fuse fold from in[0], and
// with the accumulator as in[0] it folds instead of overwriting.
func TestFuseAllMatchesSequentialFuse(t *testing.T) {
	a, _ := buildAgg(t, 6, 5, nil)
	var in []*Synopsis
	for i := 0; i < 7; i++ {
		s := a.Convert(4, i, a.Local(4, i, float64(i)))
		for node := i; node < i+6; node++ {
			s = a.Fuse(s, a.Convert(4, node, a.Local(4, node, float64(node%3))))
		}
		in = append(in, s)
	}
	enc := func(s *Synopsis) []byte { return a.AppendSynopsis(nil, s) }
	want := a.CopySynopsisInto(a.NewSynopsis(), in[0])
	for _, s := range in[1:] {
		want = a.Fuse(want, s)
	}
	dirty := a.Convert(4, 40, a.Local(4, 40, 9))
	if got := a.FuseAll(dirty, in); !bytes.Equal(enc(got), enc(want)) {
		t.Fatal("FuseAll diverged from the sequential Fuse fold")
	}
	acc := a.CopySynopsisInto(a.NewSynopsis(), in[0])
	if got := a.FuseAll(acc, append([]*Synopsis{acc}, in[1:]...)); !bytes.Equal(enc(got), enc(want)) {
		t.Fatal("FuseAll with the accumulator as in[0] did not fold it in")
	}
}
