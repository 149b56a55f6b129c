package quantile

import (
	"math"
	"slices"
	"sort"
	"testing"

	"tributarydelta/internal/sketch"
	"tributarydelta/internal/xrand"
)

// refMerge is Merge as it was before MergeInto: both halves adjusted by
// binary search, concatenated, and ordered by sort.Slice. MergeInto and
// Merge are held to it bit for bit.
func refMerge(a, b *Summary) *Summary {
	if a.N == 0 {
		return b.Clone()
	}
	if b.N == 0 {
		return a.Clone()
	}
	out := &Summary{N: a.N + b.N}
	out.Eps = (a.Eps*float64(a.N) + b.Eps*float64(b.N)) / float64(a.N+b.N)
	out.Entries = make([]Entry, 0, len(a.Entries)+len(b.Entries))
	merge := func(self, other *Summary) {
		for _, e := range self.Entries {
			idx := sort.Search(len(other.Entries), func(i int) bool {
				return other.Entries[i].V >= e.V
			})
			var rminAdd, rmaxAdd int64
			if idx > 0 {
				rminAdd = other.Entries[idx-1].RMin
			}
			if idx < len(other.Entries) {
				rmaxAdd = other.Entries[idx].RMax - 1
			} else {
				rmaxAdd = other.N
			}
			out.Entries = append(out.Entries, Entry{V: e.V, RMin: e.RMin + rminAdd, RMax: e.RMax + rmaxAdd})
		}
	}
	merge(a, b)
	merge(b, a)
	sort.Slice(out.Entries, func(i, j int) bool { return refLess(out.Entries[i], out.Entries[j]) })
	return out
}

// refLess is the comparator sort.Slice ran with.
func refLess(x, y Entry) bool {
	if x.V != y.V {
		return x.V < y.V
	}
	return x.RMin < y.RMin
}

// refPrune is Prune as it was before PruneInto: a fresh kept array.
func refPrune(s *Summary, k int) {
	if len(s.Entries) <= k+1 {
		return
	}
	kept := make([]Entry, 0, k+1)
	for i := 0; i <= k; i++ {
		target := int64(float64(i) * float64(s.N) / float64(k))
		if target < 1 {
			target = 1
		}
		e := s.lookupRank(target)
		if len(kept) == 0 || kept[len(kept)-1] != e {
			kept = append(kept, e)
		}
	}
	s.Entries = kept
	s.Eps += 1 / float64(2*k)
}

// sameEntry reports bit-identity.
func sameEntry(x, y Entry) bool {
	return math.Float64bits(x.V) == math.Float64bits(y.V) && x.RMin == y.RMin && x.RMax == y.RMax
}

// sameSummary reports bit-identity of N, Eps and every entry.
func sameSummary(a, b *Summary) bool {
	if a.N != b.N || math.Float64bits(a.Eps) != math.Float64bits(b.Eps) || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if !sameEntry(a.Entries[i], b.Entries[i]) {
			return false
		}
	}
	return true
}

// tieSummary returns a summary of the shapes the tree produces — exact over
// readings drawn from a few distinct values (so values tie across and
// within summaries), sometimes merged and pruned — or, one time in four,
// arbitrary entries: unsorted, with NaN, ±0 and rank bounds that need not
// be consistent. MergeInto must match the reference on all of them.
func tieSummary(src *xrand.Source) *Summary {
	vals := []float64{0, 1, 2, 3, math.Copysign(0, -1), 2.5, 7}
	switch src.Intn(4) {
	case 0:
		s := &Summary{N: int64(src.Intn(40)), Eps: float64(src.Intn(3)) / 8}
		for n := src.Intn(12); n > 0; n-- {
			v := vals[src.Intn(len(vals))]
			if src.Intn(10) == 0 {
				v = math.NaN()
			}
			rmin := int64(src.Intn(6))
			s.Entries = append(s.Entries, Entry{V: v, RMin: rmin, RMax: rmin + int64(src.Intn(3))})
		}
		return s
	default:
		var rs []float64
		for n := src.Intn(20); n > 0; n-- {
			rs = append(rs, vals[src.Intn(len(vals))])
		}
		s := FromUnsorted(rs)
		if src.Intn(3) == 0 {
			s = refMerge(s, tieSummary(src))
		}
		if src.Intn(3) == 0 && len(s.Entries) > 2 {
			refPrune(s, 1+src.Intn(len(s.Entries)-1))
		}
		return s
	}
}

// TestMergeIntoMatchesReference holds MergeInto (into a dirty, recycled
// destination) and Merge to the sort.Slice reference.
func TestMergeIntoMatchesReference(t *testing.T) {
	src := xrand.NewSource(61)
	dst := &Summary{}
	for trial := 0; trial < 20000; trial++ {
		a, b := tieSummary(src), tieSummary(src)
		want := refMerge(a, b)
		if got := MergeInto(dst, a, b); got != dst || !sameSummary(dst, want) {
			t.Fatalf("trial %d: MergeInto(%+v, %+v) = %+v, reference %+v", trial, a, b, dst, want)
		}
		if got := Merge(a, b); !sameSummary(got, want) {
			t.Fatalf("trial %d: Merge = %+v, reference %+v", trial, got, want)
		}
	}
}

// TestSortFuncMatchesSortSlice checks that slices.SortFunc with cmpEntry
// places every entry exactly where sort.Slice with the old comparator did —
// both run the same pdqsort, so ties land alike — on tie-heavy inputs.
func TestSortFuncMatchesSortSlice(t *testing.T) {
	src := xrand.NewSource(63)
	for trial := 0; trial < 20000; trial++ {
		es := make([]Entry, src.Intn(64))
		for i := range es {
			es[i] = Entry{V: float64(src.Intn(4)), RMin: int64(src.Intn(4)), RMax: int64(i)}
			if src.Intn(20) == 0 {
				es[i].V = math.NaN()
			}
		}
		want := slices.Clone(es)
		sort.Slice(want, func(i, j int) bool { return refLess(want[i], want[j]) })
		slices.SortFunc(es, cmpEntry)
		for i := range es {
			if !sameEntry(es[i], want[i]) {
				t.Fatalf("trial %d: position %d holds %+v, sort.Slice put %+v there", trial, i, es[i], want[i])
			}
		}
	}
}

// TestPruneIntoMatchesReference holds PruneInto (with a dirty spare) and
// Prune to the reference prune.
func TestPruneIntoMatchesReference(t *testing.T) {
	src := xrand.NewSource(64)
	spare := []Entry{{V: 9, RMin: 9, RMax: 9}}
	for trial := 0; trial < 5000; trial++ {
		s := tieSummary(src)
		if len(s.Entries) == 0 {
			continue
		}
		k := 1 + src.Intn(len(s.Entries)+2)
		want, got, plain := s.Clone(), s.Clone(), s.Clone()
		refPrune(want, k)
		spare = got.PruneInto(k, spare)
		plain.Prune(k)
		if !sameSummary(got, want) || !sameSummary(plain, want) {
			t.Fatalf("trial %d: prune(%d) of %+v = %+v / %+v, reference %+v", trial, k, s, got, plain, want)
		}
	}
}

// FuzzMergeMatchesReference builds two summaries from arbitrary bytes —
// every field free, so inputs may be unsorted, tie everywhere or hold NaN —
// and holds MergeInto to the reference.
func FuzzMergeMatchesReference(f *testing.F) {
	f.Add([]byte{2, 1, 1, 1, 2, 2, 2, 3, 1, 1, 1, 2, 4, 2, 2})
	f.Add([]byte{0, 255, 0, 0, 1, 7, 3, 3, 128, 1, 1})
	dst := &Summary{}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ss [2]*Summary
		for i := range ss {
			ss[i] = &Summary{}
			if len(data) > 0 {
				ss[i].N, data = int64(data[0]), data[1:]
			}
			for len(data) >= 3 && data[0] != 0xFF {
				v := float64(data[0] % 8)
				switch data[0] >> 5 {
				case 6:
					v = math.NaN()
				case 5:
					v = math.Copysign(0, -1)
				}
				rmin := int64(data[1] % 16)
				ss[i].Entries = append(ss[i].Entries, Entry{V: v, RMin: rmin, RMax: rmin + int64(data[2]%4)})
				data = data[3:]
			}
			if len(data) > 0 {
				data = data[1:]
			}
		}
		want := refMerge(ss[0], ss[1])
		if MergeInto(dst, ss[0], ss[1]); !sameSummary(dst, want) {
			t.Fatalf("MergeInto(%+v, %+v) = %+v, reference %+v", ss[0], ss[1], dst, want)
		}
	})
}

// refEvalBase is EvalBase as it was before its scratch: fresh clones and
// merges, a pairwise sample fold and a fresh SampleSummary.
func refEvalBase(a *Agg, treeParts []*Partial, syns []*Synopsis) *Summary {
	var root *Summary
	for _, p := range treeParts {
		if root == nil {
			root = p.Sum.Clone()
		} else {
			root = refMerge(root, p.Sum)
		}
	}
	if len(syns) > 0 {
		smp := syns[0].Smp.Clone()
		cnt := sketch.New(a.CountK)
		for _, s := range syns[1:] {
			smp.Merge(s.Smp)
		}
		for _, s := range syns {
			cnt.Union(s.Cnt)
		}
		if ds := SampleSummary(smp, int64(math.Round(cnt.Estimate()))); ds.N > 0 {
			if root == nil {
				root = ds
			} else {
				root = refMerge(root, ds)
			}
		}
	}
	if root == nil {
		return &Summary{}
	}
	return root
}

// TestEvalBaseMatchesReference runs EvalBase on one aggregate many times
// (its scratch carries over) against the allocating reference, and checks
// that answers handed out earlier are not overwritten by later calls.
func TestEvalBaseMatchesReference(t *testing.T) {
	a, _ := buildAgg(t, 5, 6, nil)
	src := xrand.NewSource(65)
	var kept []*Summary
	var keptWant []*Summary
	for trial := 0; trial < 400; trial++ {
		var parts []*Partial
		for n := src.Intn(4); n > 0; n-- {
			p := a.Local(trial, 1+src.Intn(50), float64(src.Intn(5)))
			for m := src.Intn(6); m > 0; m-- {
				p = a.MergeTree(p, a.Local(trial, 1+src.Intn(50), float64(src.Intn(5))))
			}
			parts = append(parts, p)
		}
		var syns []*Synopsis
		for n := src.Intn(4); n > 0; n-- {
			s := a.Convert(trial, 1+src.Intn(50), a.Local(trial, 1+src.Intn(50), float64(src.Intn(5))))
			for m := src.Intn(10); m > 0; m-- {
				o := 1 + src.Intn(50)
				s = a.Fuse(s, a.Convert(trial, o, a.Local(trial, o, float64(o%5))))
			}
			syns = append(syns, s)
		}
		want := refEvalBase(a, parts, syns)
		got := a.EvalBase(parts, syns)
		if !sameSummary(got, want) {
			t.Fatalf("trial %d: EvalBase = %+v, reference %+v", trial, got, want)
		}
		kept, keptWant = append(kept, got), append(keptWant, want)
	}
	for i := range kept {
		if !sameSummary(kept[i], keptWant[i]) {
			t.Fatalf("answer %d changed after later EvalBase calls", i)
		}
	}
}
