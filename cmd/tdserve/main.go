// Command tdserve hosts many independent Tributary-Delta deployments
// behind a small HTTP API — the multi-tenant direction of the roadmap:
// many concurrent collection sessions sharing one worker budget, not one
// big tree. Every deployment is a QuerySet: one or more aggregate queries
// advancing in lock-step over a shared loss realization. Deployments are
// started, advanced, queried and stopped over JSON:
//
//	POST   /v1/deployments            {"id":"a","sensors":300,"seed":1,"loss":0.25,"scheme":"TD","aggregates":["count","sum","quantiles"]}
//	GET    /v1/deployments            list all deployment statuses
//	GET    /v1/deployments/{id}       one deployment's status
//	GET    /v1/deployments/{id}/stats communication accounting + transport health
//	POST   /v1/deployments/{id}/run   {"rounds":10} → per-epoch, per-query results
//	DELETE /v1/deployments/{id}       stop and release the deployment
//
// The legacy single-aggregate form {"aggregate":"count"} still works and is
// equivalent to a one-member set. Supported aggregates: count, sum, min,
// max, average and quantiles (sum-family queries use the demo reading
// node%50 — tdserve is a host for synthetic deployments, not a data plane
// for real sensors; quantile answers report the 25/50/75/90/99th
// percentiles). The "transport" field selects a deployment's delivery
// backend: "sim" (the default synchronous simulator) or "udp" — a
// multi-process fleet where nodes partition over "udpShards" shard runtimes
// (default 4) and every frame travels as a real loopback datagram; the UDP
// fleet's barrier delivers exactly once, so answers are identical across
// backends. With -tdnode pointing at a built cmd/tdnode binary, UDP shards
// are spawned as separate OS processes; without it they run as in-process
// goroutines over the same sockets and protocol. The flags:
//
//	tdserve -addr :8473 -workers 0 -tdnode ./tdnode
//
// where -workers 0 means GOMAXPROCS concurrent deployments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"

	td "tributarydelta"
	"tributarydelta/internal/quantile"
)

// createRequest is the POST /v1/deployments body.
type createRequest struct {
	ID      string  `json:"id"`
	Sensors int     `json:"sensors"` // default 300
	Seed    uint64  `json:"seed"`    // default 1
	Loss    float64 `json:"loss"`    // Global(p) loss rate, default 0
	// Scheme is TAG, SD, TD-Coarse or TD (default TD).
	Scheme string `json:"scheme"`
	// Aggregate is the legacy single-query form (default count when
	// Aggregates is empty too).
	Aggregate string `json:"aggregate"`
	// Aggregates lists the queries of a multi-query deployment; they
	// advance in lock-step sharing one loss realization per epoch.
	Aggregates []string `json:"aggregates"`
	// Transport selects the delivery backend: "sim" (default) or "udp".
	// Both draw loss from the same seeded model, so answers are identical.
	Transport string `json:"transport"`
	// UDPShards is the shard-runtime count of a "udp" deployment (default
	// 4, clamped to the sensor count).
	UDPShards int `json:"udpShards"`
}

// runRequest is the POST /v1/deployments/{id}/run body.
type runRequest struct {
	Rounds int `json:"rounds"` // default 1
}

// queryResult is one member query's outcome in one round.
type queryResult struct {
	// Query is the member's descriptor name.
	Query string `json:"query"`
	// Answer is the query's answer: a number for the scalar aggregates, a
	// percentile map for quantiles.
	Answer any `json:"answer"`
	// TrueContrib is the exact number of sensors represented.
	TrueContrib int `json:"trueContrib"`
	// EstContrib is the base station's own contribution estimate.
	EstContrib float64 `json:"estContrib"`
	// DeltaSize is the delta region size after the round.
	DeltaSize int `json:"deltaSize"`
}

// roundResponse is one lock-step round of a deployment.
type roundResponse struct {
	Epoch   int           `json:"epoch"`
	Results []queryResult `json:"results"`
}

// statusResponse is a deployment status snapshot. Stats includes the
// duplicate-frame count the UDP barrier discovered; TransportErr surfaces
// the delivery backend's sticky error (dead shard, barrier timeout) so a
// client can tell degraded answers from healthy ones.
type statusResponse struct {
	ID           string          `json:"id"`
	Epochs       int             `json:"epochs"`
	Sensors      int             `json:"sensors"`
	Queries      []string        `json:"queries"`
	Last         *roundResponse  `json:"last,omitempty"`
	Stats        td.SessionStats `json:"stats"`
	TransportErr string          `json:"transportErr,omitempty"`
}

// statsResponse is the GET /v1/deployments/{id}/stats body: the cumulative
// communication accounting plus the UDP runtime's supervision snapshot
// (Health.shards is empty for in-process deployments), without the last
// round's results.
type statsResponse struct {
	ID           string          `json:"id"`
	Epochs       int             `json:"epochs"`
	Stats        td.SessionStats `json:"stats"`
	TransportErr string          `json:"transportErr,omitempty"`
	Health       td.FleetHealth  `json:"health"`
}

// server routes HTTP traffic onto a deployment pool.
type server struct {
	pool *td.Pool
	// tdnode is the optional shard-process binary for "udp" deployments
	// (empty: shards run as in-process goroutines).
	tdnode string
}

func newServer(pool *td.Pool) *server {
	return &server{pool: pool}
}

// routes returns the HTTP handler.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/deployments", s.create)
	mux.HandleFunc("GET /v1/deployments", s.list)
	mux.HandleFunc("GET /v1/deployments/{id}", s.get)
	mux.HandleFunc("GET /v1/deployments/{id}/stats", s.stats)
	mux.HandleFunc("POST /v1/deployments/{id}/run", s.run)
	mux.HandleFunc("DELETE /v1/deployments/{id}", s.remove)
	return mux
}

// parseScheme maps the wire names onto schemes.
func parseScheme(name string) (td.Scheme, error) {
	switch strings.ToUpper(name) {
	case "", "TD":
		return td.SchemeTD, nil
	case "TAG":
		return td.SchemeTAG, nil
	case "SD":
		return td.SchemeSD, nil
	case "TD-COARSE", "TDCOARSE":
		return td.SchemeTDCoarse, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want TAG, SD, TD-Coarse or TD)", name)
}

// demoReading is the synthetic per-node reading the sum-family and quantile
// demo queries aggregate.
func demoReading(_, node int) float64 { return float64(node % 50) }

// openQuery opens one named aggregate as a member of set.
func openQuery(dep *td.Deployment, set *td.QuerySet, name string, scheme td.Scheme) error {
	opts := []td.Option{td.WithScheme(scheme), td.InSet(set)}
	var err error
	switch strings.ToLower(name) {
	case "", "count":
		_, err = td.Open(dep, td.Count(), opts...)
	case "sum":
		_, err = td.Open(dep, td.Sum(demoReading), opts...)
	case "min":
		_, err = td.Open(dep, td.Min(demoReading), opts...)
	case "max":
		_, err = td.Open(dep, td.Max(demoReading), opts...)
	case "average", "avg":
		_, err = td.Open(dep, td.Average(demoReading), opts...)
	case "quantiles":
		_, err = td.Open(dep, td.Quantiles(demoReading), opts...)
	default:
		return fmt.Errorf("unknown aggregate %q (want count, sum, min, max, average or quantiles)", name)
	}
	return err
}

// buildSet assembles the deployment and query set a create request asks
// for.
func (s *server) buildSet(req createRequest) (*td.QuerySet, error) {
	scheme, err := parseScheme(req.Scheme)
	if err != nil {
		return nil, err
	}
	if req.Loss < 0 || req.Loss >= 1 {
		return nil, fmt.Errorf("loss %v out of [0,1)", req.Loss)
	}
	names := req.Aggregates
	if len(names) == 0 {
		names = []string{req.Aggregate}
	}
	dep := td.NewSyntheticDeployment(req.Seed, req.Sensors)
	dep.SetGlobalLoss(req.Loss)
	switch strings.ToLower(req.Transport) {
	case "", "sim":
	case "udp":
		shards := req.UDPShards
		if shards <= 0 {
			shards = 4
		}
		if shards > req.Sensors {
			shards = req.Sensors
		}
		dep.UseUDPRuntime(shards)
		if s.tdnode != "" {
			dep.SetUDPNodeBinary(s.tdnode)
		}
	default:
		return nil, fmt.Errorf("unknown transport %q (want sim or udp)", req.Transport)
	}
	set := dep.NewQuerySet(req.Seed)
	for _, name := range names {
		if err := openQuery(dep, set, name, scheme); err != nil {
			set.Close()
			return nil, err
		}
	}
	return set, nil
}

// quantilePercentiles are the ranks quantile answers report.
var quantilePercentiles = []float64{0.25, 0.5, 0.75, 0.9, 0.99}

// convertRound flattens one SetRound into the wire response shape.
func convertRound(names []string, round td.SetRound) roundResponse {
	out := roundResponse{Epoch: round.Epoch, Results: make([]queryResult, 0, len(round.Results))}
	for i, boxed := range round.Results {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		switch res := boxed.(type) {
		case td.Result[float64]:
			out.Results = append(out.Results, queryResult{
				Query: name, Answer: res.Answer,
				TrueContrib: res.TrueContrib, EstContrib: res.EstContrib, DeltaSize: res.DeltaSize,
			})
		case td.Result[*quantile.Summary]:
			qs := make(map[string]float64, len(quantilePercentiles))
			for _, q := range quantilePercentiles {
				qs[fmt.Sprintf("p%02.0f", q*100)] = res.Answer.Quantile(q)
			}
			out.Results = append(out.Results, queryResult{
				Query: name, Answer: qs,
				TrueContrib: res.TrueContrib, EstContrib: res.EstContrib, DeltaSize: res.DeltaSize,
			})
		}
	}
	return out
}

// convertStatus flattens a pool status into the wire response shape.
func convertStatus(st td.DeploymentStatus) statusResponse {
	out := statusResponse{
		ID:           st.ID,
		Epochs:       st.Epochs,
		Sensors:      st.Sensors,
		Queries:      st.Queries,
		Stats:        st.Stats,
		TransportErr: errString(st.TransportErr),
	}
	if st.Epochs > 0 {
		last := convertRound(st.Queries, st.Last)
		out.Last = &last
	}
	return out
}

// errString renders an optional error for the wire.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *server) create(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.ID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("id is required"))
		return
	}
	if req.Sensors == 0 {
		req.Sensors = 300
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	set, err := s.buildSet(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.pool.AddSet(req.ID, set); err != nil {
		set.Close()
		writeError(w, http.StatusConflict, err)
		return
	}
	st, _ := s.pool.Status(req.ID)
	writeJSON(w, http.StatusCreated, convertStatus(st))
}

func (s *server) list(w http.ResponseWriter, _ *http.Request) {
	ids := s.pool.IDs()
	out := make([]statusResponse, 0, len(ids))
	for _, id := range ids {
		if st, ok := s.pool.Status(id); ok {
			out = append(out, convertStatus(st))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) get(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.pool.Status(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no deployment %q", id))
		return
	}
	writeJSON(w, http.StatusOK, convertStatus(st))
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.pool.Status(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no deployment %q", id))
		return
	}
	writeJSON(w, http.StatusOK, statsResponse{
		ID:           st.ID,
		Epochs:       st.Epochs,
		Stats:        st.Stats,
		TransportErr: errString(st.TransportErr),
		Health:       st.Health,
	})
}

func (s *server) run(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req runRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
	}
	if req.Rounds <= 0 {
		req.Rounds = 1
	}
	if req.Rounds > 100000 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("rounds %d too large", req.Rounds))
		return
	}
	rounds, names, err := s.pool.RunRounds(id, req.Rounds)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	out := make([]roundResponse, 0, len(rounds))
	for _, round := range rounds {
		out = append(out, convertRound(names, round))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) remove(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.pool.Remove(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no deployment %q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func main() {
	addr := flag.String("addr", ":8473", "listen address")
	workers := flag.Int("workers", 0, "concurrent deployment budget (0 = GOMAXPROCS)")
	tdnode := flag.String("tdnode", "", "path to a built cmd/tdnode binary; udp shards spawn as processes when set")
	flag.Parse()
	srv := newServer(td.NewPool(*workers))
	srv.tdnode = *tdnode
	log.Printf("tdserve listening on %s (worker budget %d)", *addr, srv.pool.Workers())
	log.Fatal(http.ListenAndServe(*addr, srv.routes()))
}
