package runner

import "tributarydelta/internal/network"

// Mux multiplexes several runners — the members of a query set — over one
// delivery backend, so N simultaneous queries on one deployment share a
// single loss realization per epoch: every member's Deliver for a given
// (epoch, attempt, from, to) consults the same Transport, and a networked
// backend's shard fleet is spawned once, not once per query.
//
// Members run strictly sequentially within a round (the query-set contract):
// each member's port brackets its sub-round with the backend's epoch
// barrier, so all of a member's frames are processed — and its receive-side
// accounting recorded — before the next member transmits. That barrier is
// what lets per-query Stats stay separate over a shared backend: a backend
// implementing StatsSetter has its accounting target swapped at the
// quiescent point between members.
type Mux struct {
	tr     Transport
	marker EpochMarker
	setter StatsSetter
}

// StatsSetter is implemented by delivery backends whose receive-side
// accounting target can be redirected while the backend is quiescent (all
// delivered frames processed) — transport.UDP implements it.
type StatsSetter interface {
	SetStats(*network.Stats)
}

// NewMux wraps the shared backend. A nil Transport means members use their
// own in-process simulators (pure functions of the shared seed — the loss
// realization is shared with no coordination needed) and ports only carry
// the per-member stats attribution.
func NewMux(tr Transport) *Mux {
	m := &Mux{tr: tr}
	m.marker, _ = tr.(EpochMarker)
	m.setter, _ = tr.(StatsSetter)
	return m
}

// Transport returns the shared backend (nil when members simulate locally).
func (m *Mux) Transport() Transport { return m.tr }

// Port returns one member's view of the shared backend: a Transport whose
// deliveries consult the shared loss realization and whose epoch brackets
// attribute the backend's receive-side accounting to stats.
func (m *Mux) Port(stats *network.Stats) Transport {
	return &muxPort{mux: m, stats: stats}
}

// muxPort is one member's Transport view; it always implements EpochMarker
// so the runner brackets every member sub-round even over a plain backend.
type muxPort struct {
	mux   *Mux
	stats *network.Stats
}

// Deliver implements Transport via the shared backend.
func (p *muxPort) Deliver(epoch, attempt, from, to int, frame []byte) bool {
	return p.mux.tr.Deliver(epoch, attempt, from, to, frame)
}

// BeginEpoch implements EpochMarker: redirect the backend's receive-side
// accounting to this member (the previous member's EndEpoch left the backend
// quiescent), then enter the backend's own epoch bracket.
func (p *muxPort) BeginEpoch(epoch int) {
	if p.mux.setter != nil {
		p.mux.setter.SetStats(p.stats)
	}
	if p.mux.marker != nil {
		p.mux.marker.BeginEpoch(epoch)
	}
}

// EndEpoch implements EpochMarker: drain the backend so every frame this
// member delivered is processed (and accounted) before the next member runs.
func (p *muxPort) EndEpoch(epoch int) {
	if p.mux.marker != nil {
		p.mux.marker.EndEpoch(epoch)
	}
}
