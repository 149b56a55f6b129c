package tributarydelta

// The Query API: aggregate constructors-as-data plus functional options,
// opened against a Deployment into the one generic Session. A Query[R] is
// inert — a named recipe for assembling the internal runner — so the same
// descriptor can be opened many times, on many deployments, alone or inside
// a QuerySet.

import (
	"fmt"

	"tributarydelta/internal/aggregate"
	"tributarydelta/internal/freq"
	"tributarydelta/internal/network"
	"tributarydelta/internal/quantile"
	"tributarydelta/internal/runner"
	"tributarydelta/internal/sample"
	"tributarydelta/internal/topo"
	"tributarydelta/internal/transport"
)

// MomentsValue is the Moments query's answer: estimated mean, variance and
// skewness. It aliases the internal type so the two never drift.
type MomentsValue = aggregate.MomentsValue

// FrequentItemsAnswer is the FrequentItems query's answer.
type FrequentItemsAnswer struct {
	// Frequent lists the reported items (estimate > (s−ε)·N̂), ascending.
	Frequent []freq.Item
	// Estimates holds the per-item frequency estimates.
	Estimates map[freq.Item]float64
	// NEst is the estimated total number of item occurrences.
	NEst float64
}

// Query describes an aggregate query answering values of type R. Build one
// with a constructor (Count, Sum, Quantiles, …) and run it with Open.
type Query[R any] struct {
	name  string
	build func(env *openEnv) (engine[R], error)
}

// Name returns the query's descriptor name ("Count", "Quantiles", …).
func (q Query[R]) Name() string { return q.name }

// openConfig is the resolved option set of one Open call.
type openConfig struct {
	scheme      Scheme
	seed        uint64
	seedSet     bool
	udpShards   int
	udpSet      bool
	epsilon     float64
	sampleK     int
	threshold   float64
	adaptEvery  int
	retransmits int
	topK        int
	pipelined   bool
	churn       []ChurnEvent
	set         *QuerySet
}

// Option adjusts how Open assembles a session; see the With* constructors.
type Option func(*openConfig)

// WithScheme selects the aggregation scheme (default SchemeTD).
func WithScheme(s Scheme) Option { return func(c *openConfig) { c.scheme = s } }

// WithSeed sets the seed driving all the session's randomness — losses,
// sketches, sample ranks (default 1; QuerySet members default to the set's
// seed).
func WithSeed(seed uint64) Option {
	return func(c *openConfig) { c.seed = seed; c.seedSet = true }
}

// WithUDPTransport overrides the deployment's runtime selection for this
// session with the multi-process UDP transport: nodes partition over shards
// shard runtimes and every frame travels as a real loopback datagram behind
// an exactly-once barrier, so answers are bit-identical to the in-process
// simulator (see Deployment.UseUDPRuntime). shards <= 0 selects the
// simulator instead. It cannot be combined with InSet — a query set's
// runtime is pinned when the set is created — and Open rejects the
// combination.
func WithUDPTransport(shards int) Option {
	return func(c *openConfig) { c.udpShards = shards; c.udpSet = true }
}

// WithEpsilon sets the approximation budget of queries that take one: the
// tree-side rank-error budget of Quantiles (default 0.02) and the total
// count-error tolerance ε of FrequentItems (default support/10). Scalar
// queries ignore it.
func WithEpsilon(eps float64) Option { return func(c *openConfig) { c.epsilon = eps } }

// WithSampleK sets the bottom-k capacity of the Quantiles delta sample
// (default 100). The Sample query takes its capacity as a constructor
// argument instead.
func WithSampleK(k int) Option { return func(c *openConfig) { c.sampleK = k } }

// WithThreshold sets the minimum contributing fraction the adaptive schemes
// defend (default 0.90, §7.1 of the paper).
func WithThreshold(frac float64) Option { return func(c *openConfig) { c.threshold = frac } }

// WithAdaptEvery sets the adaptation period in epochs (default 10).
func WithAdaptEvery(epochs int) Option { return func(c *openConfig) { c.adaptEvery = epochs } }

// WithTreeRetransmits sets the number of extra unicast attempts tree nodes
// make after a loss (default 0; 2 is the paper's Figure 9(b) setup).
func WithTreeRetransmits(n int) Option { return func(c *openConfig) { c.retransmits = n } }

// WithTopK enables the §4.2 top-k TD expansion heuristic with the given k
// (default 0: the max/2 rule).
func WithTopK(k int) Option { return func(c *openConfig) { c.topK = k } }

// WithPipelined runs the §2 pipelined collection: one result per level slot
// once the pipeline fills, mixing readings across a window of epochs.
func WithPipelined(on bool) Option { return func(c *openConfig) { c.pipelined = on } }

// WithChurn installs a scripted node-churn schedule: nodes dying (ChurnDown),
// rejoining (ChurnUp) and re-parenting (ChurnReparent) at fixed epochs,
// applied before the epoch's first transmission. Open validates the whole
// schedule up front and rejects infeasible events (unknown nodes, downing a
// down node, reparent cycles, non-neighbour or ring-violating parents). The
// schedule is part of the run's identity: under a fixed schedule answers
// stay bit-identical across transports. Downed nodes stay in the
// contributing-% denominator, so a schedule that silences subtrees is
// exactly the stress the §4.2 adaptation strategies respond to.
func WithChurn(events ...ChurnEvent) Option {
	return func(c *openConfig) { c.churn = append(c.churn[:len(c.churn):len(c.churn)], events...) }
}

// InSet opens the session as a member of set: it shares the set's
// network — one loss realization per epoch across every member — and the
// runtime selection (simulator or shared UDP fleet) the set pinned at
// creation. Member sessions are advanced by the set's lock-step
// rounds and released by QuerySet.Close.
func InSet(set *QuerySet) Option { return func(c *openConfig) { c.set = set } }

// openEnv carries the resolved assembly context to a query's build hook.
type openEnv struct {
	d     *Deployment
	cfg   *openConfig
	net   *network.Net
	tr    runner.Transport
	stats *network.Stats
}

// Open assembles q into a running session over d. Options default to
// SchemeTD, seed 1 and the deployment's runtime selection; the failure
// model is the deployment's current one, pinned at Open time.
func Open[R any](d *Deployment, q Query[R], opts ...Option) (*Session[R], error) {
	if q.build == nil {
		return nil, fmt.Errorf("tributarydelta: Open of a zero Query")
	}
	cfg := openConfig{scheme: SchemeTD, seed: 1}
	for _, o := range opts {
		o(&cfg)
	}

	stats := network.NewStats(d.scenario.Graph.N())
	var net *network.Net
	var tr runner.Transport
	var stop func()
	var trErr func() error
	var health func() FleetHealth
	if set := cfg.set; set != nil {
		if set.d != d {
			return nil, fmt.Errorf("tributarydelta: InSet with a query set of a different deployment")
		}
		if cfg.udpSet {
			return nil, fmt.Errorf("tributarydelta: a session runtime option cannot override a query set's runtime (pinned at NewQuerySet)")
		}
		if !cfg.seedSet {
			cfg.seed = set.seed
		}
		net = set.net
		tr = set.port(stats)
		trErr = set.transportErr
		health = set.transportHealth
	} else {
		net = network.New(d.scenario.Graph, d.model, cfg.seed)
		// An explicit per-session option overrides the deployment's runtime.
		udpShards := d.udpShards
		if cfg.udpSet {
			udpShards = cfg.udpShards
		}
		if udpShards > 0 {
			u, err := transport.NewUDP(net, transport.UDPOptions{
				Shards: udpShards, Stats: stats,
				Spawn: d.udpSpawner(),
			})
			if err != nil {
				return nil, fmt.Errorf("tributarydelta: udp runtime: %w", err)
			}
			tr, stop, trErr, health = u, u.Close, u.Err, u.Health
		}
	}

	eng, err := q.build(&openEnv{d: d, cfg: &cfg, net: net, tr: tr, stats: stats})
	if err != nil {
		return nil, closeOnErr(stop, err)
	}
	s := &Session[R]{eng: eng, name: q.name, deps: d, stop: stop, trErr: trErr, health: health, done: make(chan struct{})}
	if cfg.set != nil {
		if err := cfg.set.register(s); err != nil {
			return nil, closeOnErr(stop, err)
		}
	}
	return s, nil
}

// runnerEngine adapts one assembled runner (answering A) to the session's
// engine contract (answering R) through a pure conversion.
type runnerEngine[V, P, S, A, R any] struct {
	r    *runner.Runner[V, P, S, A]
	conv func(A) R
}

func (e runnerEngine[V, P, S, A, R]) runEpoch(epoch int) Result[R] {
	res := e.r.RunEpoch(epoch)
	return Result[R]{
		Epoch:       res.Epoch,
		Answer:      e.conv(res.Answer),
		TrueContrib: res.TrueContrib,
		EstContrib:  res.EstContrib,
		DeltaSize:   res.DeltaSize,
	}
}

func (e runnerEngine[V, P, S, A, R]) exact(epoch int) R { return e.conv(e.r.ExactAnswer(epoch)) }
func (e runnerEngine[V, P, S, A, R]) sensors() int      { return e.r.Sensors() }
func (e runnerEngine[V, P, S, A, R]) deltaSize() int    { return e.r.State().DeltaSize() }
func (e runnerEngine[V, P, S, A, R]) stats() SessionStats {
	// Snapshot is the race-free view: transmit-side totals as published at
	// the last epoch boundary, receive side live — safe to call while a
	// stream is producing.
	snap := e.r.Stats.Snapshot()
	return SessionStats{
		TotalWords: snap.Words,
		TotalBytes: snap.Bytes,
		Losses:     snap.Losses,
		RxFrames:   snap.RxFrames,
		Duplicates: snap.Duplicates,
	}
}

// ident is the identity conversion of engines whose runner already answers
// the session's type.
func ident[R any](r R) R { return r }

// buildEngine assembles the runner for one query over the resolved Open
// context.
func buildEngine[V, P, S, A, R any](env *openEnv, agg aggregate.Aggregate[V, P, S, A],
	value func(epoch, node int) V, conv func(A) R) (engine[R], error) {
	r, err := runner.New(runner.Config[V, P, S, A]{
		Graph: env.d.scenario.Graph, Rings: env.d.scenario.Rings, Tree: env.d.treeFor(env.cfg.scheme),
		Net:             env.net,
		Agg:             agg,
		Value:           value,
		Mode:            env.cfg.scheme,
		Threshold:       env.cfg.threshold,
		AdaptEvery:      env.cfg.adaptEvery,
		TreeRetransmits: env.cfg.retransmits,
		TopK:            env.cfg.topK,
		Pipelined:       env.cfg.pipelined,
		Seed:            env.cfg.seed,
		Transport:       env.tr,
		Stats:           env.stats,
		Churn:           env.cfg.churn,
	})
	if err != nil {
		return nil, err
	}
	return runnerEngine[V, P, S, A, R]{r: r, conv: conv}, nil
}

// Count returns the query counting contributing sensors — the paper's
// running example aggregate.
func Count() Query[float64] {
	return Query[float64]{name: "Count", build: func(env *openEnv) (engine[float64], error) {
		return buildEngine(env, aggregate.NewCount(env.cfg.seed),
			func(int, int) struct{} { return struct{}{} }, ident[float64])
	}}
}

// Sum returns the query summing per-node readings supplied by value(epoch,
// node). Readings must be non-negative.
func Sum(value func(epoch, node int) float64) Query[float64] {
	return Query[float64]{name: "Sum", build: func(env *openEnv) (engine[float64], error) {
		return buildEngine(env, aggregate.NewSum(env.cfg.seed), value, ident[float64])
	}}
}

// Min returns the query tracking the minimum reading. Min is idempotent, so
// multi-path aggregation introduces no approximation error (§5).
func Min(value func(epoch, node int) float64) Query[float64] {
	return Query[float64]{name: "Min", build: func(env *openEnv) (engine[float64], error) {
		return buildEngine(env, aggregate.Min{}, value, ident[float64])
	}}
}

// Max returns the query tracking the maximum reading; see Min.
func Max(value func(epoch, node int) float64) Query[float64] {
	return Query[float64]{name: "Max", build: func(env *openEnv) (engine[float64], error) {
		return buildEngine(env, aggregate.Max{}, value, ident[float64])
	}}
}

// Average returns the query computing the mean reading as Sum/Count (both
// exact in the tributaries, sketched in the delta).
func Average(value func(epoch, node int) float64) Query[float64] {
	return Query[float64]{name: "Average", build: func(env *openEnv) (engine[float64], error) {
		return buildEngine(env, aggregate.NewAverage(env.cfg.seed), value, ident[float64])
	}}
}

// Moments returns the query computing mean, variance and skewness (§5's
// statistical moments, via duplicate-insensitive power sums) over
// non-negative readings.
func Moments(value func(epoch, node int) float64) Query[MomentsValue] {
	return Query[MomentsValue]{name: "Moments", build: func(env *openEnv) (engine[MomentsValue], error) {
		return buildEngine(env, aggregate.NewMoments(env.cfg.seed), value, ident[MomentsValue])
	}}
}

// Sample returns the query maintaining a duplicate-insensitive bottom-k
// uniform sample of the readings (§5), usable for order statistics.
func Sample(k int, value func(epoch, node int) float64) Query[*sample.Sample] {
	return Query[*sample.Sample]{name: "Sample", build: func(env *openEnv) (engine[*sample.Sample], error) {
		if k <= 0 {
			return nil, fmt.Errorf("sample capacity must be positive, got %d", k)
		}
		return buildEngine(env, aggregate.NewUniformSample(env.cfg.seed, k), value, ident[*sample.Sample])
	}}
}

// FrequentItems returns the §6 Tributary-Delta frequent items query:
// items(epoch, node) supplies each node's item collection, support the
// reporting threshold, and expectedN an upper bound on the total item
// occurrences per epoch (nodes are assumed to know log N, §6.2). The total
// error tolerance ε comes from WithEpsilon (default support/10) and must
// stay below support.
func FrequentItems(items func(epoch, node int) []freq.Item, support, expectedN float64) Query[FrequentItemsAnswer] {
	return Query[FrequentItemsAnswer]{name: "FrequentItems", build: func(env *openEnv) (engine[FrequentItemsAnswer], error) {
		epsilon := env.cfg.epsilon
		if epsilon == 0 {
			epsilon = support / 10
		}
		if epsilon <= 0 || support <= epsilon {
			return nil, fmt.Errorf("need 0 < epsilon < support, got eps=%v s=%v", epsilon, support)
		}
		tree := env.d.treeFor(env.cfg.scheme)
		dfac := topo.TreeDominationFactor(tree, 0.05)
		if dfac < 1.2 {
			dfac = 1.2
		}
		logN := log2(expectedN) + 1
		agg := freq.NewAgg(tree,
			freq.MinTotalLoad{Epsilon: epsilon / 2, D: dfac},
			epsilon/2,
			freq.DefaultParams(env.cfg.seed, epsilon/2, logN))
		conv := func(res freq.Result) FrequentItemsAnswer {
			return FrequentItemsAnswer{
				Frequent:  res.Frequent(support, epsilon),
				Estimates: res.Estimates,
				NEst:      res.NEst,
			}
		}
		return buildEngine(env, agg, items, conv)
	}}
}

// quantilesCountK is the FM bitmap count of the Quantiles delta population
// sketch — the standard Count bit vector of Figure 3.
const quantilesCountK = 40

// Quantiles returns the query answering rank queries over per-node readings
// — the paper's §6.1.4 extension. Tributaries fold mergeable Greenwald–
// Khanna-style summaries with a uniform precision gradient whose total
// rank-error budget is WithEpsilon (default 0.02); the delta runs the §5
// duplicate-insensitive bottom-k sample (capacity WithSampleK, default 100)
// plus an FM sketch of the delta population, grafted onto the exact tree
// summary at the base station. The answer is a rank summary: call
// Quantile(q), Query(rank) or RankBounds on it.
func Quantiles(value func(epoch, node int) float64) Query[*quantile.Summary] {
	return Query[*quantile.Summary]{name: "Quantiles", build: func(env *openEnv) (engine[*quantile.Summary], error) {
		eps := env.cfg.epsilon
		if eps == 0 {
			eps = 0.02
		}
		if eps < 0 {
			return nil, fmt.Errorf("quantiles epsilon must be positive, got %v", eps)
		}
		k := env.cfg.sampleK
		if k == 0 {
			k = 100
		}
		if k < 0 {
			return nil, fmt.Errorf("quantiles sample capacity must be positive, got %d", k)
		}
		tree := env.d.treeFor(env.cfg.scheme)
		h := tree.Heights()[topo.Base]
		if h < 1 {
			h = 1
		}
		agg := quantile.NewAgg(tree, env.cfg.seed, k, quantilesCountK, quantile.Uniform(eps, h))
		return buildEngine(env, agg, value, ident[*quantile.Summary])
	}}
}

// Compile-time check that the quantiles aggregate satisfies the runner
// contract with the facade's type parameters.
var _ aggregate.Aggregate[float64, *quantile.Partial, *quantile.Synopsis, *quantile.Summary] = (*quantile.Agg)(nil)
