package main

import (
	"fmt"
	"strings"
)

// deploySpec is one deployment a workload asks tdserve to host. It is the
// whole input: tdserve receives only the JSON create request made from it,
// and the in-process reference and the traced stacks are built from the same
// value.
type deploySpec struct {
	Sensors    int
	Seed       uint64
	Loss       float64
	Scheme     string // TAG, SD or TD
	Aggregates []string
	UDP        bool // "transport":"udp" with udpShards in-process shards
}

// udpShards is the shard count of every UDP deployment (tdserve's default).
const udpShards = 4

// createRequest mirrors the POST /v1/deployments body of cmd/tdserve.
type createRequest struct {
	ID         string   `json:"id"`
	Sensors    int      `json:"sensors"`
	Seed       uint64   `json:"seed"`
	Loss       float64  `json:"loss"`
	Scheme     string   `json:"scheme"`
	Aggregates []string `json:"aggregates"`
	Transport  string   `json:"transport"`
	UDPShards  int      `json:"udpShards,omitempty"`
}

// request renders the spec as the create request for deployment id.
func (s deploySpec) request(id string) createRequest {
	req := createRequest{
		ID: id, Sensors: s.Sensors, Seed: s.Seed, Loss: s.Loss,
		Scheme: s.Scheme, Aggregates: s.Aggregates, Transport: "sim",
	}
	if s.UDP {
		req.Transport, req.UDPShards = "udp", udpShards
	}
	return req
}

// String names the spec in trace output.
func (s deploySpec) String() string {
	tr := "sim"
	if s.UDP {
		tr = "udp"
	}
	return fmt.Sprintf("%s/%s/%s/n%d/seed%d/loss%g", s.Scheme, strings.Join(s.Aggregates, "+"), tr, s.Sensors, s.Seed, s.Loss)
}

// workload is one named traffic mix. The resident deployments are part of
// its definition: their fields (seeds) are fixed, because steady-state cost
// and the paper's cost axes depend on the field by ±8–25 %, which would drown
// every bound (README, "What the seed drives"). The run's -seed drives the
// traffic around them: the field of every ephemeral deployment of the
// lifecycle cycle, and on fleet-churn the order client A visits residents in.
type workload struct {
	Name string
	// Residents are hosted for the whole run and take the timed
	// POST …/run requests.
	Residents func(nproc int) []deploySpec
	// Ephemeral is the deployment of the lifecycle cycle (create → run
	// lifecycleRounds → GET stats → DELETE); its Seed is drawn per cycle.
	Ephemeral deploySpec
	// Churn runs the lifecycle cycle on a second client concurrently with
	// the timed requests; otherwise the cycles run between slices.
	Churn bool
}

// Workload constants shared with the README.
const (
	warmupEpochs    = 1000         // epochs run on every resident before timing
	windowStart     = 200          // the paper's cost axes are computed over
	windowEnd       = warmupEpochs // warm-up epochs [windowStart, windowEnd)
	lifecycleRounds = 50           // rounds in the lifecycle cycle's one batch request
	cyclesPerSlice  = 2            // lifecycle cycles after each slice when !Churn
)

func single(spec deploySpec) func(int) []deploySpec {
	return func(int) []deploySpec { return []deploySpec{spec} }
}

var (
	tagSpec = deploySpec{Sensors: 600, Seed: 1, Loss: 0.2, Scheme: "TAG", Aggregates: []string{"count"}}
	sdSpec  = deploySpec{Sensors: 600, Seed: 1, Loss: 0.2, Scheme: "SD", Aggregates: []string{"count"}}
	tdSpec  = deploySpec{Sensors: 600, Seed: 1, Loss: 0.2, Scheme: "TD", Aggregates: []string{"count"}}
	udpSpec = deploySpec{Sensors: 600, Seed: 1, Loss: 0.2, Scheme: "TD", Aggregates: []string{"count"}, UDP: true}

	fleetEven = deploySpec{Sensors: 300, Loss: 0.1, Scheme: "SD", Aggregates: []string{"count", "sum"}}
	fleetOdd  = deploySpec{Sensors: 300, Loss: 0.3, Scheme: "TD", Aggregates: []string{"count", "average", "quantiles"}}
)

// fleetResidents are fleet-churn's 2·nproc resident deployments: more
// residents than workers, so each runs with one engine worker and the
// working set exceeds one deployment's arenas.
func fleetResidents(nproc int) []deploySpec {
	out := make([]deploySpec, 2*nproc)
	for i := range out {
		out[i] = fleetEven
		if i%2 == 1 {
			out[i] = fleetOdd
		}
		out[i].Seed = uint64(i + 1)
	}
	return out
}

var workloads = []workload{
	{
		// One TAG deployment on sim. The engine is a minority of the request, so
		// HTTP, JSON, Pool, QuerySet and Session do most of the work; sketches,
		// §4.2 and sockets do none. A serve-path optimisation shows here and
		// nowhere else.
		Name:      "http-tag",
		Residents: single(tagSpec), Ephemeral: tagSpec,
	},
	{
		// One TD deployment on sim, the BENCH_4–6 configuration reached over
		// HTTP. The runner (fold/convert, memo, fused unions, codec, §4.2) is
		// most of the request; a lone deployment receives the pool's whole
		// worker budget, so the wave engine and its EWMA gate are live. Sockets
		// do nothing.
		Name:      "sim-td",
		Residents: single(tdSpec), Ephemeral: tdSpec,
	},
	{
		// sim-td with "transport":"udp", 4 in-process shards, deterministic
		// barrier. Transport (Deliver, batch packing, sendmmsg/recvmmsg,
		// FLUSH/DONE barrier) is more than half of the request; answers and cost
		// axes must equal sim-td exactly, so a transport change that leaks into
		// the answer fails.
		Name:      "udp-td",
		Residents: single(udpSpec), Ephemeral: udpSpec,
	},
	{
		// 2·nproc resident 300-sensor deployments (even: SD [count,sum] loss
		// 0.1; odd: TD [count,average,quantiles] loss 0.3) visited round-robin
		// while a second client loops create → 50 rounds → stats → delete on
		// ephemeral TD deployments. Multi-query sets, quantile summaries, SD's
		// union/memo path, Pool admission and rebalance, topology construction;
		// exposes a run-path gain bought with dearer create/delete or
		// per-deployment memory.
		Name:      "fleet-churn",
		Residents: fleetResidents, Ephemeral: fleetOdd, Churn: true,
	},
}

// findWorkload resolves a -workload name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, ", "))
}
