package main

import (
	"fmt"
	"math"

	td "tributarydelta"
	"tributarydelta/internal/quantile"
)

// The in-process side: the same deployment a create request describes, opened
// through the public facade exactly as cmd/tdserve opens it. The reference
// answers every server answer must equal bit for bit come from here, and so
// do the Pool, QuerySet and Session stacks of the traced run.

// demoReading is tdserve's synthetic per-node reading for the sum-family and
// quantile queries.
func demoReading(_, node int) float64 { return float64(node % 50) }

// quantileRanks are the ranks tdserve reports for a quantiles answer, under
// the keys quantileKey gives.
var quantileRanks = []float64{0.25, 0.5, 0.75, 0.9, 0.99}

func quantileKey(q float64) string { return fmt.Sprintf("p%02.0f", q*100) }

// parseScheme maps tdserve's scheme names onto the facade's.
func parseScheme(name string) (td.Scheme, error) {
	switch name {
	case "TAG":
		return td.SchemeTAG, nil
	case "SD":
		return td.SchemeSD, nil
	case "TD":
		return td.SchemeTD, nil
	}
	return 0, fmt.Errorf("unknown scheme %q", name)
}

// newDeployment assembles the spec's field and loss model. udp selects the
// spec's own transport; the reference always runs on the simulator, which
// every backend must match.
func newDeployment(spec deploySpec, udp bool) *td.Deployment {
	dep := td.NewSyntheticDeployment(spec.Seed, spec.Sensors)
	dep.SetGlobalLoss(spec.Loss)
	if udp && spec.UDP {
		dep.UseUDPRuntime(udpShards)
	}
	return dep
}

// memberSession is what the traced run needs of a member session whatever
// its answer type: advance it alone by one epoch.
type memberSession interface {
	runMember(epoch int)
}

type member[R any] struct{ s *td.Session[R] }

func (m member[R]) runMember(epoch int) { m.s.RunEpoch(epoch) }

func open[R any](dep *td.Deployment, q td.Query[R], opts []td.Option) (memberSession, error) {
	s, err := td.Open(dep, q, opts...)
	if err != nil {
		return nil, err
	}
	return member[R]{s}, nil
}

// openMember opens one named aggregate of the spec as a member of set.
func openMember(dep *td.Deployment, set *td.QuerySet, scheme td.Scheme, name string) (memberSession, error) {
	opts := []td.Option{td.WithScheme(scheme), td.InSet(set)}
	switch name {
	case "count":
		return open(dep, td.Count(), opts)
	case "sum":
		return open(dep, td.Sum(demoReading), opts)
	case "average":
		return open(dep, td.Average(demoReading), opts)
	case "quantiles":
		return open(dep, td.Quantiles(demoReading), opts)
	}
	return nil, fmt.Errorf("unknown aggregate %q", name)
}

// openSet opens the spec as tdserve's buildSet does: one QuerySet seeded with
// the deployment seed, one member per aggregate.
func openSet(spec deploySpec, udp bool) (*td.QuerySet, []memberSession, error) {
	scheme, err := parseScheme(spec.Scheme)
	if err != nil {
		return nil, nil, err
	}
	dep := newDeployment(spec, udp)
	set := dep.NewQuerySet(spec.Seed)
	members := make([]memberSession, 0, len(spec.Aggregates))
	for _, name := range spec.Aggregates {
		m, err := openMember(dep, set, scheme, name)
		if err != nil {
			set.Close()
			return nil, nil, err
		}
		members = append(members, m)
	}
	return set, members, nil
}

// wireRound renders a lock-step round in tdserve's response shape.
func wireRound(names []string, round td.SetRound) roundResponse {
	out := roundResponse{Epoch: round.Epoch, Results: make([]queryResult, 0, len(round.Results))}
	for i, boxed := range round.Results {
		switch res := boxed.(type) {
		case td.Result[float64]:
			out.Results = append(out.Results, queryResult{
				Query: names[i], Answer: answer{Scalar: res.Answer},
				TrueContrib: res.TrueContrib, EstContrib: res.EstContrib, DeltaSize: res.DeltaSize,
			})
		case td.Result[*quantile.Summary]:
			qs := make(map[string]float64, len(quantileRanks))
			for _, q := range quantileRanks {
				qs[quantileKey(q)] = res.Answer.Quantile(q)
			}
			out.Results = append(out.Results, queryResult{
				Query: names[i], Answer: answer{Quantiles: qs},
				TrueContrib: res.TrueContrib, EstContrib: res.EstContrib, DeltaSize: res.DeltaSize,
			})
		}
	}
	return out
}

// reference is a spec's in-process truth for epochs [0, len(Rounds)).
type reference struct {
	Rounds []roundResponse
	// WindowBytes is TotalBytes over epochs [windowStart, windowEnd), zero
	// when the reference is shorter than the window.
	WindowBytes int64
}

// computeReference runs the spec in process on the simulator.
func computeReference(spec deploySpec, epochs int) (reference, error) {
	set, _, err := openSet(spec, false)
	if err != nil {
		return reference{}, err
	}
	defer set.Close()
	names := set.Names()
	totalBytes := func() (n int64) {
		for _, st := range set.MemberStats() {
			n += st.TotalBytes
		}
		return n
	}
	ref := reference{Rounds: make([]roundResponse, 0, epochs)}
	var atStart int64
	for e := 0; e < epochs; e++ {
		if e == windowStart {
			atStart = totalBytes()
		}
		ref.Rounds = append(ref.Rounds, wireRound(names, set.RunEpoch(e)))
		if e == windowEnd-1 {
			ref.WindowBytes = totalBytes() - atStart
		}
	}
	return ref, nil
}

// sameBits reports bit-for-bit float equality (so NaN equals NaN and 0 does
// not equal −0: the reference is the same code, not a tolerance).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// equalRound reports whether a server round equals the reference round bit
// for bit.
func equalRound(got, want roundResponse) bool {
	if got.Epoch != want.Epoch || len(got.Results) != len(want.Results) {
		return false
	}
	for i, g := range got.Results {
		w := want.Results[i]
		if g.Query != w.Query || g.TrueContrib != w.TrueContrib || g.DeltaSize != w.DeltaSize ||
			!sameBits(g.EstContrib, w.EstContrib) || !sameBits(g.Answer.Scalar, w.Answer.Scalar) ||
			len(g.Answer.Quantiles) != len(w.Answer.Quantiles) {
			return false
		}
		for k, v := range w.Answer.Quantiles {
			if gv, ok := g.Answer.Quantiles[k]; !ok || !sameBits(gv, v) {
				return false
			}
		}
	}
	return true
}
