// Package tributarydelta is a Go implementation of the Tributary-Delta
// framework of Manjhi, Nath and Gibbons, "Tributaries and Deltas: Efficient
// and Robust Aggregation in Sensor Network Streams" (SIGMOD 2005).
//
// Tributary-Delta combines the two classical in-network aggregation
// approaches for wireless sensor networks: exact, compact tree aggregation
// (TAG-style) in low-loss regions — the tributaries — and duplicate-
// insensitive multi-path aggregation (synopsis diffusion over rings) around
// the base station — the delta. The boundary between the two adapts at
// runtime to the observed fraction of contributing nodes.
//
// The package is a facade over the internal implementation, organized
// around one Query API:
//
//   - Deployment assembles a sensor field, its rings decomposition, the
//     restricted aggregation tree and a failure model.
//   - A Query[R] describes an aggregate — Count, Sum, Min, Max, Average,
//     Moments, Sample, FrequentItems or Quantiles — as inert data;
//     functional options (WithScheme, WithSeed, WithEpsilon, …) tune it.
//   - Open runs a query over a deployment as a generic Session[R]:
//     per-epoch answers, contributing-node counts and a Stats snapshot of
//     the energy accounting, with Run/Stream collection loops.
//   - QuerySet advances many queries over one deployment in lock-step
//     rounds sharing a single loss realization per epoch.
//   - Pool hosts many independent deployments and advances them
//     concurrently under a shared worker budget (cmd/tdserve exposes a
//     Pool over HTTP).
//
// A minimal session:
//
//	dep := tributarydelta.NewSyntheticDeployment(1, 600)
//	dep.SetGlobalLoss(0.2)
//	s, err := tributarydelta.Open(dep, tributarydelta.Count(),
//		tributarydelta.WithScheme(tributarydelta.SchemeTD))
//	if err != nil { ... }
//	defer s.Close()
//	res := s.RunEpoch(0)
//	fmt.Println(res.Answer, res.TrueContrib)
//
// Deployment.UseUDPRuntime swaps the synchronous in-process simulator for
// the multi-process UDP transport (internal/transport), whose exactly-once
// barrier keeps answers bit-identical; see DESIGN.md §5 for the transport
// and §6 for the query layer.
//
// Messages travel as real bytes: every partial result and synopsis is
// serialized by the internal/wire codec layer, and all energy accounting
// (SessionStats) is measured from encoded frame lengths.
//
// The cmd/tdbench tool regenerates every table and figure of the paper's
// evaluation; DESIGN.md covers the architecture, the wire format and the
// experiment harness.
package tributarydelta

import (
	"fmt"
	"math"

	"tributarydelta/internal/network"
	"tributarydelta/internal/runner"
	"tributarydelta/internal/topo"
	"tributarydelta/internal/transport"
	"tributarydelta/internal/workload"
)

// Scheme selects the aggregation approach of a session.
type Scheme = runner.Mode

// Aggregation schemes.
const (
	// SchemeTAG runs pure tree aggregation (the TAG baseline).
	SchemeTAG = runner.ModeTree
	// SchemeSD runs pure multi-path synopsis diffusion over rings.
	SchemeSD = runner.ModeMultipath
	// SchemeTDCoarse adapts the delta region a whole level at a time.
	SchemeTDCoarse = runner.ModeTDCoarse
	// SchemeTD adapts the delta region subtree by subtree.
	SchemeTD = runner.ModeTD
)

// FleetHealth is a point-in-time supervision snapshot of a session's UDP
// shard fleet: per-shard state, restart counts and degraded epochs. It
// aliases the transport type so the two never drift; see
// Session.TransportHealth.
type FleetHealth = transport.HealthSnapshot

// ShardHealth describes one shard in a FleetHealth snapshot.
type ShardHealth = transport.ShardHealth

// ChurnEvent is one scripted topology change of a WithChurn schedule: a
// node dying, rejoining or re-parenting at a fixed epoch. It aliases the
// runner type so the two never drift.
type ChurnEvent = runner.ChurnEvent

// ChurnKind selects a ChurnEvent's effect.
type ChurnKind = runner.ChurnKind

// Churn event kinds.
const (
	// ChurnDown silences a node: it stops transmitting and everything sent
	// to it is lost, while it stays in the contributing-% denominator —
	// the non-contributing pressure the §4.2 adaptation absorbs.
	ChurnDown = runner.ChurnDown
	// ChurnUp revives a previously downed node in place.
	ChurnUp = runner.ChurnUp
	// ChurnReparent moves a node's tree link to a new parent (a radio
	// neighbour; under the TD schemes also one ring closer to the base).
	ChurnReparent = runner.ChurnReparent
)

// Deployment is an assembled sensor field: positions, radio connectivity,
// the rings decomposition, the restricted aggregation tree (links ⊆ rings,
// §4.1) and a TAG tree for the pure-tree baseline.
type Deployment struct {
	scenario  *workload.Scenario
	model     network.Model
	udpShards int
	udpBinary string
}

// NewSyntheticDeployment places n sensors uniformly in the paper's 20×20
// field with the base station at (10,10).
func NewSyntheticDeployment(seed uint64, n int) *Deployment {
	return &Deployment{
		scenario: workload.NewSynthetic(seed, n),
		model:    network.Global{P: 0},
	}
}

// NewLabDeployment builds the 54-sensor LabData-style deployment with its
// distance-derived loss model.
func NewLabDeployment(seed uint64) *Deployment {
	sc := workload.NewLab(seed)
	return &Deployment{scenario: sc, model: sc.LabLossModel()}
}

// SetGlobalLoss installs the Global(p) failure model.
func (d *Deployment) SetGlobalLoss(p float64) {
	d.model = network.Global{P: p}
}

// SetRegionalLoss installs the Regional(p1,p2) failure model: senders in the
// rectangle {(x0,y0),(x1,y1)} lose messages at p1, everyone else at p2.
func (d *Deployment) SetRegionalLoss(x0, y0, x1, y1, p1, p2 float64) {
	d.model = network.Regional{
		Region: network.Rect{X0: x0, Y0: y0, X1: x1, Y1: y1},
		P1:     p1, P2: p2, Pos: d.scenario.Graph.Pos,
	}
}

// Sensors returns the number of sensor nodes (excluding the base station).
func (d *Deployment) Sensors() int { return d.scenario.Graph.Sensors() }

// Rings returns each node's ring level (hop count from the base station).
func (d *Deployment) Rings() []int {
	return append([]int(nil), d.scenario.Rings.Level...)
}

// DominationFactor returns the aggregation tree's domination factor at the
// paper's 0.05 granularity (§6.1.2).
func (d *Deployment) DominationFactor() float64 {
	return topo.TreeDominationFactor(d.scenario.Tree, 0.05)
}

// UseUDPRuntime selects the multi-process UDP transport for sessions
// subsequently built from this deployment: nodes are partitioned over shards
// shard runtimes (loopback processes, or in-process goroutines over real
// sockets by default — see SetUDPNodeBinary) and every frame travels as a
// real UDP datagram. Its barrier delivers every surviving frame exactly
// once, so answers stay bit-identical to the in-process simulator. Sessions built with the
// UDP runtime own a shard fleet and should be released with Close when done.
// shards <= 0 reverts to the simulator. WithUDPTransport overrides the choice
// per session.
func (d *Deployment) UseUDPRuntime(shards int) { d.udpShards = shards }

// SetUDPNodeBinary points the UDP runtime at a tdnode executable: each shard
// becomes `path -control <addr> -shard <i>`, a separate OS process. An empty
// path (the default) runs shards as goroutines in this process — identical
// protocol and sockets, no exec.
func (d *Deployment) SetUDPNodeBinary(path string) { d.udpBinary = path }

// udpSpawner resolves the shard spawner for the deployment's UDP runtime.
func (d *Deployment) udpSpawner() transport.Spawner {
	if d.udpBinary == "" {
		return nil
	}
	return transport.SpawnExec(d.udpBinary)
}

// Scenario exposes the underlying workload scenario for advanced use
// together with the internal packages.
func (d *Deployment) Scenario() *workload.Scenario { return d.scenario }

// Model exposes the current failure model.
func (d *Deployment) Model() network.Model { return d.model }

// treeFor picks the aggregation tree for a scheme: the TAG construction for
// the pure-tree baseline, the restricted tree otherwise.
func (d *Deployment) treeFor(scheme Scheme) *topo.Tree {
	if scheme == SchemeTAG {
		return d.scenario.TAGTree
	}
	return d.scenario.Tree
}

// closeOnErr releases a just-built transport when session construction
// fails, and wraps the error with the facade prefix.
func closeOnErr(stop func(), err error) error {
	if stop != nil {
		stop()
	}
	return fmt.Errorf("tributarydelta: %w", err)
}

func log2(x float64) float64 { return math.Log2(x) }
