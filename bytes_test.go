package tributarydelta_test

import (
	"testing"

	td "tributarydelta"
)

// The radio-byte regression pin. bytes_per_epoch — the paper's energy cost
// axis — is exact, so the benchmark under bench/ compares it with strict
// equality; this test carries the same measurement into tier-1 so a codec
// that grows (or shrinks) a message fails here, not only in a bench run. Each
// case is one of the benchmark's resident deployments, opened through the
// facade exactly as cmd/tdserve opens a create request: a synthetic field,
// global loss, one QuerySet seeded with the field seed, one member per
// aggregate, readings node%50. The pinned figure is the set's total encoded
// bytes over epochs [200, 1000), the bench's warm-up window.

const (
	byteWindowStart = 200
	byteWindowEnd   = 1000
)

// residentSpec mirrors a bench deployment.
type residentSpec struct {
	name       string
	sensors    int
	seed       uint64
	loss       float64
	scheme     td.Scheme
	aggregates []string
	// windowBytes is the pinned total over the window.
	windowBytes int64
}

func demoReading(_, node int) float64 { return float64(node % 50) }

// windowBytes runs the spec's query set for byteWindowEnd epochs and returns
// its total radio bytes over [byteWindowStart, byteWindowEnd).
func windowBytes(t *testing.T, spec residentSpec) int64 {
	t.Helper()
	dep := td.NewSyntheticDeployment(spec.seed, spec.sensors)
	dep.SetGlobalLoss(spec.loss)
	set := dep.NewQuerySet(spec.seed)
	defer set.Close()
	opts := []td.Option{td.WithScheme(spec.scheme), td.InSet(set)}
	for _, name := range spec.aggregates {
		var err error
		switch name {
		case "count":
			_, err = td.Open(dep, td.Count(), opts...)
		case "sum":
			_, err = td.Open(dep, td.Sum(demoReading), opts...)
		case "average":
			_, err = td.Open(dep, td.Average(demoReading), opts...)
		case "quantiles":
			_, err = td.Open(dep, td.Quantiles(demoReading), opts...)
		default:
			t.Fatalf("unknown aggregate %q", name)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	total := func() (n int64) {
		for _, st := range set.MemberStats() {
			n += st.TotalBytes
		}
		return n
	}
	var atStart int64
	for e := 0; e < byteWindowEnd; e++ {
		if e == byteWindowStart {
			atStart = total()
		}
		set.RunEpoch(e)
	}
	return total() - atStart
}

// TestBenchResidentBytes pins the radio bytes of the http-tag resident, the
// sim-td/udp-td resident and fleet-churn's first four residents — its whole
// fleet on a 2-vCPU host (odd seeds SD, even seeds TD). Per epoch the pins are
// the bench's bytes_per_epoch: 2 876.205 B on http-tag, 15 280.889 B on
// sim-td, and on fleet-churn the residents' mean, 32 828.165 B.
func TestBenchResidentBytes(t *testing.T) {
	fleetSD := []string{"count", "sum"}
	fleetTD := []string{"count", "average", "quantiles"}
	specs := []residentSpec{
		{"http-tag", 600, 1, 0.2, td.SchemeTAG, []string{"count"}, 2_300_964},
		{"sim-td", 600, 1, 0.2, td.SchemeTD, []string{"count"}, 12_224_711},
		{"fleet-churn/1", 300, 1, 0.1, td.SchemeSD, fleetSD, 20_461_244},
		{"fleet-churn/2", 300, 2, 0.3, td.SchemeTD, fleetTD, 31_892_513},
		{"fleet-churn/3", 300, 3, 0.1, td.SchemeSD, fleetSD, 19_160_786},
		{"fleet-churn/4", 300, 4, 0.3, td.SchemeTD, fleetTD, 33_535_586},
	}
	for _, spec := range specs {
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			if got := windowBytes(t, spec); got != spec.windowBytes {
				t.Errorf("%d radio bytes over epochs [%d, %d) (%.3f per epoch), pinned %d",
					got, byteWindowStart, byteWindowEnd,
					float64(got)/(byteWindowEnd-byteWindowStart), spec.windowBytes)
			}
		})
	}
}
