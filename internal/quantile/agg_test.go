package quantile

import (
	"math"
	"sort"
	"testing"

	"tributarydelta/internal/sample"
	"tributarydelta/internal/topo"
	"tributarydelta/internal/wire"
	"tributarydelta/internal/xrand"
)

// buildAgg returns an agg over a tiny synthetic field's restricted tree.
func buildAgg(t *testing.T, seed uint64, k int, g Gradient) (*Agg, *topo.Tree) {
	t.Helper()
	gph := topo.NewRandomField(seed, 60, 20, 20, topo.Point{X: 10, Y: 10}, 3.0)
	r := topo.BuildRings(gph)
	tree := topo.BuildRestrictedTree(gph, r, seed)
	return NewAgg(tree, seed, k, 40, g), tree
}

func TestAggPartialCodecRoundTrip(t *testing.T) {
	a, _ := buildAgg(t, 1, 8, nil)
	p := a.Local(0, 3, 17.5)
	p = a.MergeTree(p, a.Local(0, 4, 2.25))
	p = a.MergeTree(p, a.Local(0, 5, 99))
	enc := a.AppendPartial(nil, p)
	got, err := a.DecodePartial(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sum.N != p.Sum.N || len(got.Sum.Entries) != len(p.Sum.Entries) {
		t.Fatalf("summary mismatch: %+v vs %+v", got.Sum, p.Sum)
	}
	for i := range got.Sum.Entries {
		if got.Sum.Entries[i] != p.Sum.Entries[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, got.Sum.Entries[i], p.Sum.Entries[i])
		}
	}
	if got.Smp.Len() != p.Smp.Len() {
		t.Fatalf("sample size %d vs %d", got.Smp.Len(), p.Smp.Len())
	}
	reEnc := a.AppendPartial(nil, got)
	if string(reEnc) != string(enc) {
		t.Fatal("re-encoding differs")
	}
	if _, err := a.DecodePartial(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated partial must fail to decode")
	}
}

func TestAggSynopsisCodecRoundTrip(t *testing.T) {
	a, _ := buildAgg(t, 2, 8, nil)
	s := a.Convert(0, 3, a.Local(0, 3, 5))
	s = a.Fuse(s, a.Convert(0, 4, a.Local(0, 4, 7)))
	enc := a.AppendSynopsis(nil, s)
	got, err := a.DecodeSynopsis(enc)
	if err != nil {
		t.Fatal(err)
	}
	reEnc := a.AppendSynopsis(nil, got)
	if string(reEnc) != string(enc) {
		t.Fatal("synopsis re-encoding differs")
	}
	if _, err := a.DecodeSynopsis(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated synopsis must fail to decode")
	}
}

// The population sketch is the synopsis's last field and delimits itself:
// every malformed shape of it must fail both synopsis decoders.
func TestAggSynopsisRejectsNonCanonicalCount(t *testing.T) {
	a, _ := buildAgg(t, 4, 8, nil)
	s := a.Convert(0, 3, a.Local(0, 3, 5))
	enc := a.AppendSynopsis(nil, s)
	decode := func(data []byte) error {
		_, err := a.DecodeSynopsis(data)
		if _, errInto := a.DecodeSynopsisInto(data, a.NewSynopsis()); (err == nil) != (errInto == nil) {
			t.Errorf("DecodeSynopsis says %v, DecodeSynopsisInto says %v", err, errInto)
		}
		return err
	}
	if err := decode(enc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(enc); i++ {
		if decode(enc[:i]) == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	if decode(append(append([]byte(nil), enc...), 0)) == nil {
		t.Error("trailing byte accepted")
	}
	smp := s.Smp.AppendWire(nil)
	if err := decode(append(smp, 0)); err != nil {
		t.Fatalf("empty population sketch rejected: %v", err)
	}
	// Bit-packed hand-made sketches: an all-zero body under width 1, and
	// width headers past 32 backed by enough bytes for the widest reading.
	for name, cnt := range map[string][]byte{
		"non-minimal width": append([]byte{1}, make([]byte, (a.CountK+7)/8)...),
		"width header 33":   append([]byte{33}, make([]byte, (33*a.CountK+7)/8)...),
		"width header 255":  append([]byte{255}, make([]byte, 4*a.CountK)...),
	} {
		if decode(append(smp[:len(smp):len(smp)], cnt...)) == nil {
			t.Errorf("population sketch with %s accepted", name)
		}
	}
}

// TestAggSampleRanksFromSeed pins the rank-free sample codec inside the
// aggregate: a synopsis carries no ranks (count, rank epoch, then node and
// reading per item), the aggregate's memoized decode agrees with the plain
// hashing decode in every reseeding window, and a frame decoded under
// another deployment seed is refused because its recomputed ranks no longer
// ascend.
func TestAggSampleRanksFromSeed(t *testing.T) {
	a, _ := buildAgg(t, 6, 16, nil)
	for epoch := 0; epoch < 3*a.ReseedEvery; epoch += 7 {
		s := a.Convert(epoch, 1, a.Local(epoch, 1, 4))
		for node := 2; node < 40; node++ {
			s = a.Fuse(s, a.Convert(epoch, node, a.Local(epoch, node, float64(node%9))))
		}
		if s.Smp.Len() != a.K || s.Smp.RankEpoch() != uint64(a.rankEpoch(epoch)) {
			t.Fatalf("epoch %d: sample of %d items in rank epoch %d", epoch, s.Smp.Len(), s.Smp.RankEpoch())
		}
		smp := s.Smp.AppendWire(nil)
		// The count, the rank epoch, then each item's node and reading —
		// nothing else.
		want := len(wire.AppendUvarint(nil, uint64(a.K))) + len(wire.AppendUvarint(nil, s.Smp.RankEpoch()))
		for _, it := range s.Smp.Items() {
			want += len(wire.AppendUvarint(nil, uint64(it.Node))) + len(wire.AppendFloat64(nil, it.Value))
		}
		if len(smp) != want {
			t.Fatalf("epoch %d: %d-item sample encodes to %d bytes, want %d", epoch, a.K, len(smp), want)
		}
		got, err := a.DecodeSynopsis(a.AppendSynopsis(nil, s))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := sample.DecodeWire(smp, a.Seed, a.K)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range got.Smp.Items() {
			if it != plain.Items()[i] || it != s.Smp.Items()[i] {
				t.Fatalf("epoch %d item %d: memoized %+v, hashed %+v, sent %+v", epoch, i, it, plain.Items()[i], s.Smp.Items()[i])
			}
		}
		other, _ := buildAgg(t, 7, 16, nil)
		if _, err := other.DecodeSynopsis(a.AppendSynopsis(nil, s)); err == nil {
			t.Fatalf("epoch %d: synopsis decoded under another seed", epoch)
		}
	}
}

// Fusing a replica of the same converted synopsis must not change the
// answer — the duplicate-insensitivity multi-path routing relies on.
func TestAggFuseIdempotent(t *testing.T) {
	a, _ := buildAgg(t, 3, 16, nil)
	p := a.Local(1, 7, 3.5)
	p = a.MergeTree(p, a.Local(1, 8, 4.5))
	s1 := a.Convert(1, 7, p)
	s2 := a.Convert(1, 7, p)
	fused := a.Fuse(a.Convert(1, 9, a.Local(1, 9, 10)), s1)
	once := a.AppendSynopsis(nil, fused)
	fused = a.Fuse(fused, s2)
	twice := a.AppendSynopsis(nil, fused)
	if string(once) != string(twice) {
		t.Fatal("fusing a duplicate synopsis changed the state")
	}
}

// A pure-tree evaluation with a gradient keeps every quantile within the
// gradient's total rank budget.
func TestAggTreeQuantileError(t *testing.T) {
	const eps = 0.05
	seed := uint64(4)
	gph := topo.NewRandomField(seed, 80, 20, 20, topo.Point{X: 10, Y: 10}, 3.0)
	rings := topo.BuildRings(gph)
	tree := topo.BuildRestrictedTree(gph, rings, seed)
	h := tree.Heights()[topo.Base]
	a := NewAgg(tree, seed, 8, 40, Uniform(eps, h))

	// Fold every in-tree node's reading up the tree, exactly as the runner
	// would without loss.
	n := len(tree.Parent)
	partials := make([]*Partial, n)
	var vals []float64
	src := xrand.NewSource(seed, 0xABC)
	reading := make([]float64, n)
	for v := 1; v < n; v++ {
		reading[v] = 100 + 10*src.NormFloat64()
	}
	for _, v := range tree.PostOrder() {
		if v == topo.Base || !tree.InTree(v) {
			continue
		}
		p := a.Local(0, v, reading[v])
		vals = append(vals, reading[v])
		for _, c := range tree.Children[v] {
			if partials[c] != nil {
				p = a.MergeTree(p, partials[c])
			}
		}
		partials[v] = a.FinalizeTree(0, v, p)
	}
	var tops []*Partial
	for _, c := range tree.Children[topo.Base] {
		if partials[c] != nil {
			tops = append(tops, partials[c])
		}
	}
	root := a.EvalBase(tops, nil)
	if root.N != int64(len(vals)) {
		t.Fatalf("root covers %d readings, want %d", root.N, len(vals))
	}
	if root.Eps > eps {
		t.Fatalf("accumulated eps %v exceeds budget %v", root.Eps, eps)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		got := root.Quantile(q)
		// The true rank of the answer must be within eps*N (plus entry
		// slack, bounded by the same budget) of the queried rank.
		r := int64(q*float64(root.N-1)) + 1
		lo, hi := exactRankRange(vals, got)
		slack := int64(math.Ceil(2 * eps * float64(root.N)))
		if hi < r-slack || lo > r+slack {
			t.Fatalf("q=%v: value %v has true rank [%d,%d], want within %d of %d",
				q, got, lo, hi, slack, r)
		}
	}
}

// exactRankRange returns the 1-based rank range value occupies in sorted.
func exactRankRange(sorted []float64, v float64) (lo, hi int64) {
	lo = int64(sort.SearchFloat64s(sorted, v)) + 1
	hi = int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > v }))
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func TestSampleSummary(t *testing.T) {
	// Partial sample: exact.
	s := sample.New(10)
	for i := 0; i < 5; i++ {
		s.Add(1, 0, i+1, float64(i))
	}
	sum := SampleSummary(s, 5)
	if sum.N != 5 || sum.Eps != 0 {
		t.Fatalf("partial sample summary N=%d eps=%v, want exact over 5", sum.N, sum.Eps)
	}

	// Full sample over a larger population: ranks scale to n.
	s = sample.New(10)
	for i := 0; i < 200; i++ {
		s.Add(1, 0, i+1, float64(i))
	}
	sum = SampleSummary(s, 200)
	if sum.N != 200 || len(sum.Entries) != 10 {
		t.Fatalf("full sample summary N=%d entries=%d", sum.N, len(sum.Entries))
	}
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
	if last := sum.Entries[len(sum.Entries)-1]; last.RMax != 200 {
		t.Fatalf("top sample entry rank %d, want 200", last.RMax)
	}

	// Empty.
	if sum := SampleSummary(sample.New(4), 0); sum.N != 0 {
		t.Fatal("empty sample must give empty summary")
	}
}
