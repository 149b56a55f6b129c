package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	td "tributarydelta"
)

func doJSON(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestServeLifecycle(t *testing.T) {
	pool := td.NewPool(2)
	defer pool.Close()
	h := newServer(pool).routes()

	// Create two deployments, one on the UDP runtime.
	w := doJSON(t, h, "POST", "/v1/deployments",
		`{"id":"a","sensors":150,"seed":1,"loss":0.25,"scheme":"TD","aggregate":"count"}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create a: %d %s", w.Code, w.Body)
	}
	w = doJSON(t, h, "POST", "/v1/deployments",
		`{"id":"b","sensors":150,"seed":2,"loss":0.1,"scheme":"SD","aggregate":"sum","transport":"udp","udpShards":2}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create b: %d %s", w.Code, w.Body)
	}

	// Duplicate ids conflict; malformed specs are rejected.
	if w = doJSON(t, h, "POST", "/v1/deployments", `{"id":"a"}`); w.Code != http.StatusConflict {
		t.Fatalf("duplicate create: %d", w.Code)
	}
	if w = doJSON(t, h, "POST", "/v1/deployments", `{"id":"x","scheme":"bogus"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad scheme: %d", w.Code)
	}
	if w = doJSON(t, h, "POST", "/v1/deployments", `{"sensors":10}`); w.Code != http.StatusBadRequest {
		t.Fatalf("missing id: %d", w.Code)
	}
	if w = doJSON(t, h, "POST", "/v1/deployments", `{"id":"x","aggregates":["count","bogus"]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad aggregate: %d", w.Code)
	}

	// Advance deployment a and check the results and status line up.
	w = doJSON(t, h, "POST", "/v1/deployments/a/run", `{"rounds":5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("run a: %d %s", w.Code, w.Body)
	}
	var results []roundResponse
	if err := json.Unmarshal(w.Body.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 || results[4].Epoch != 4 || len(results[4].Results) != 1 {
		t.Fatalf("results = %+v", results)
	}
	if q := results[4].Results[0]; q.Query != "Count" || q.TrueContrib <= 0 {
		t.Fatalf("round = %+v", results[4])
	}
	w = doJSON(t, h, "GET", "/v1/deployments/a", "")
	if w.Code != http.StatusOK {
		t.Fatalf("get a: %d", w.Code)
	}
	var st statusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Epochs != 5 || st.Last == nil || st.Last.Epoch != 4 || st.Stats.TotalBytes <= 0 {
		t.Fatalf("status = %+v, want 5 epochs ending %+v", st, results[4])
	}

	// The UDP-runtime deployment advances like the simulator would.
	w = doJSON(t, h, "POST", "/v1/deployments/b/run", "")
	if w.Code != http.StatusOK {
		t.Fatalf("run b: %d %s", w.Code, w.Body)
	}

	// List shows both; delete removes; 404s after.
	w = doJSON(t, h, "GET", "/v1/deployments", "")
	var all []statusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].ID != "a" || all[1].ID != "b" {
		t.Fatalf("list = %+v", all)
	}
	if w = doJSON(t, h, "DELETE", "/v1/deployments/b", ""); w.Code != http.StatusNoContent {
		t.Fatalf("delete b: %d", w.Code)
	}
	if w = doJSON(t, h, "DELETE", "/v1/deployments/b", ""); w.Code != http.StatusNotFound {
		t.Fatalf("double delete: %d", w.Code)
	}
	if w = doJSON(t, h, "POST", "/v1/deployments/b/run", ""); w.Code != http.StatusNotFound {
		t.Fatalf("run deleted: %d", w.Code)
	}
	if w = doJSON(t, h, "GET", "/v1/deployments/b", ""); w.Code != http.StatusNotFound {
		t.Fatalf("get deleted: %d", w.Code)
	}
}

// TestServeUDPTransport creates a "udp" deployment — the queries run over a
// real loopback datagram fleet — alongside an identical "sim" one, and
// checks they answer identically round for round; unknown transport names
// are rejected up front.
func TestServeUDPTransport(t *testing.T) {
	pool := td.NewPool(2)
	defer pool.Close()
	h := newServer(pool).routes()

	w := doJSON(t, h, "POST", "/v1/deployments",
		`{"id":"u","sensors":120,"seed":5,"loss":0.25,"transport":"udp","udpShards":3,"aggregates":["count","sum"]}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create udp: %d %s", w.Code, w.Body)
	}
	w = doJSON(t, h, "POST", "/v1/deployments",
		`{"id":"s","sensors":120,"seed":5,"loss":0.25,"transport":"sim","aggregates":["count","sum"]}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create sim: %d %s", w.Code, w.Body)
	}
	if w = doJSON(t, h, "POST", "/v1/deployments", `{"id":"x","transport":"bogus"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad transport: %d %s", w.Code, w.Body)
	}
	// "chan" names no backend and is rejected like any unknown transport.
	w = doJSON(t, h, "POST", "/v1/deployments", `{"id":"x","transport":"chan"}`)
	var e map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusBadRequest ||
		e["error"] != `unknown transport "chan" (want sim or udp)` {
		t.Fatalf("chan transport: %d %s", w.Code, w.Body)
	}

	var byID [2][]roundResponse
	for i, id := range []string{"u", "s"} {
		w = doJSON(t, h, "POST", "/v1/deployments/"+id+"/run", `{"rounds":6}`)
		if w.Code != http.StatusOK {
			t.Fatalf("run %s: %d %s", id, w.Code, w.Body)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &byID[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(byID[0]) != 6 {
		t.Fatalf("udp deployment completed %d/6 rounds", len(byID[0]))
	}
	for e := range byID[0] {
		for m := range byID[0][e].Results {
			if byID[0][e].Results[m] != byID[1][e].Results[m] {
				t.Fatalf("epoch %d member %d: udp %+v, sim %+v",
					e, m, byID[0][e].Results[m], byID[1][e].Results[m])
			}
		}
		if byID[0][e].Results[0].TrueContrib <= 0 {
			t.Fatalf("epoch %d: no contributions over udp: %+v", e, byID[0][e])
		}
	}
	if w = doJSON(t, h, "DELETE", "/v1/deployments/u", ""); w.Code != http.StatusNoContent {
		t.Fatalf("delete udp: %d", w.Code)
	}
}

// TestServeStatsRoundTrip pins the /stats surface over a UDP deployment:
// the duplicate-frame accounting and the transport-health field must
// round-trip through the JSON API — populated receive counters, zero
// duplicates under the deterministic barrier, and no transport error on a
// healthy fleet — and the same fields must appear in the full status too.
func TestServeStatsRoundTrip(t *testing.T) {
	pool := td.NewPool(2)
	defer pool.Close()
	h := newServer(pool).routes()

	w := doJSON(t, h, "POST", "/v1/deployments",
		`{"id":"u","sensors":120,"seed":5,"loss":0.2,"transport":"udp","udpShards":3,"aggregates":["count","sum"]}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create udp: %d %s", w.Code, w.Body)
	}
	if w = doJSON(t, h, "POST", "/v1/deployments/u/run", `{"rounds":4}`); w.Code != http.StatusOK {
		t.Fatalf("run: %d %s", w.Code, w.Body)
	}

	w = doJSON(t, h, "GET", "/v1/deployments/u/stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", w.Code, w.Body)
	}
	var st statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "u" || st.Epochs != 4 {
		t.Fatalf("stats = %+v, want id u at 4 epochs", st)
	}
	if st.Stats.RxFrames == 0 || st.Stats.TotalBytes == 0 {
		t.Fatalf("udp deployment reported empty accounting: %+v", st.Stats)
	}
	if st.Stats.Duplicates != 0 {
		t.Fatalf("deterministic barrier surfaced %d duplicates", st.Stats.Duplicates)
	}
	if st.TransportErr != "" {
		t.Fatalf("healthy fleet reported transport error %q", st.TransportErr)
	}
	if len(st.Health.Shards) != 3 {
		t.Fatalf("health snapshot covers %d shards, want 3: %+v", len(st.Health.Shards), st.Health)
	}
	if !st.Health.Healthy() || st.Health.Restarts != 0 || st.Health.Failed != 0 {
		t.Fatalf("undisturbed fleet reported supervision activity: %+v", st.Health)
	}
	for i, sh := range st.Health.Shards {
		if sh.Shard != i || sh.State != "healthy" {
			t.Fatalf("shard %d health = %+v, want healthy", i, sh)
		}
	}
	// The raw JSON must carry the Duplicates field explicitly (SessionStats
	// marshals untagged) so clients can rely on its presence, and the
	// supervision snapshot rides under "health".
	if !strings.Contains(w.Body.String(), `"Duplicates"`) {
		t.Fatalf("stats body lacks Duplicates field: %s", w.Body)
	}
	if !strings.Contains(w.Body.String(), `"health"`) {
		t.Fatalf("stats body lacks health field: %s", w.Body)
	}

	// The full status view carries the same accounting and health fields.
	w = doJSON(t, h, "GET", "/v1/deployments/u", "")
	var full statusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if full.Stats.RxFrames != st.Stats.RxFrames || full.TransportErr != "" {
		t.Fatalf("status stats %+v (err %q) disagree with /stats %+v",
			full.Stats, full.TransportErr, st.Stats)
	}

	if w = doJSON(t, h, "GET", "/v1/deployments/nope/stats", ""); w.Code != http.StatusNotFound {
		t.Fatalf("stats of unknown id: %d", w.Code)
	}
}

// TestServeMultiQuery creates one deployment running three aggregates in
// lock-step and checks every round reports all of them, including the
// quantile percentile map.
func TestServeMultiQuery(t *testing.T) {
	pool := td.NewPool(2)
	defer pool.Close()
	h := newServer(pool).routes()

	w := doJSON(t, h, "POST", "/v1/deployments",
		`{"id":"m","sensors":150,"seed":3,"loss":0.2,"scheme":"TD","aggregates":["count","sum","quantiles"]}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var st statusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Queries) != 3 || st.Queries[0] != "Count" || st.Queries[2] != "Quantiles" {
		t.Fatalf("queries = %v", st.Queries)
	}

	w = doJSON(t, h, "POST", "/v1/deployments/m/run", `{"rounds":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("run: %d %s", w.Code, w.Body)
	}
	var results []roundResponse
	if err := json.Unmarshal(w.Body.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("rounds = %d", len(results))
	}
	for _, round := range results {
		if len(round.Results) != 3 {
			t.Fatalf("round %d has %d results", round.Epoch, len(round.Results))
		}
		// All members share one loss realization, so the contributing sets
		// coincide each round.
		for _, q := range round.Results[1:] {
			if q.TrueContrib != round.Results[0].TrueContrib {
				t.Fatalf("round %d: contributions diverge: %+v", round.Epoch, round.Results)
			}
		}
		qm, ok := round.Results[2].Answer.(map[string]any)
		if !ok {
			t.Fatalf("quantiles answer is %T", round.Results[2].Answer)
		}
		p50, ok := qm["p50"].(float64)
		if !ok || p50 < 0 || p50 >= 50 {
			t.Fatalf("p50 = %v (demo readings are node%%50)", qm["p50"])
		}
	}
}
