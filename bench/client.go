package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"
)

// The wire shapes of cmd/tdserve as a client sees them, and the checker
// every answer passes through.

// answer is a query's answer: a number for the scalar aggregates, a
// percentile map for quantiles.
type answer struct {
	Scalar    float64
	Quantiles map[string]float64
}

// UnmarshalJSON accepts either shape.
func (a *answer) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '{' {
		return json.Unmarshal(data, &a.Quantiles)
	}
	return json.Unmarshal(data, &a.Scalar)
}

type queryResult struct {
	Query       string  `json:"query"`
	Answer      answer  `json:"answer"`
	TrueContrib int     `json:"trueContrib"`
	EstContrib  float64 `json:"estContrib"`
	DeltaSize   int     `json:"deltaSize"`
}

type roundResponse struct {
	Epoch   int           `json:"epoch"`
	Results []queryResult `json:"results"`
}

// statsResponse is the part of GET …/stats (and of the create response) the
// benchmark reads.
type statsResponse struct {
	Epochs  int `json:"epochs"`
	Sensors int `json:"sensors"` // create response only
	Stats   struct {
		TotalBytes int64
	} `json:"stats"`
	TransportErr string `json:"transportErr"`
}

// checkRounds is the response checker: the reply to a run of `rounds` rounds
// on a deployment that had completed nextEpoch epochs must carry exactly the
// consecutive epochs, one finite result per query, and no more contributors
// than sensors.
func checkRounds(got []roundResponse, nextEpoch, rounds, queries, sensors int) error {
	if len(got) != rounds {
		return fmt.Errorf("%d rounds in reply, want %d", len(got), rounds)
	}
	for i, r := range got {
		if r.Epoch != nextEpoch+i {
			return fmt.Errorf("epoch %d in reply, want %d (non-consecutive)", r.Epoch, nextEpoch+i)
		}
		if len(r.Results) != queries {
			return fmt.Errorf("epoch %d: %d results, want %d", r.Epoch, len(r.Results), queries)
		}
		for _, q := range r.Results {
			if !finite(q.Answer.Scalar) || !finite(q.EstContrib) {
				return fmt.Errorf("epoch %d %s: non-finite answer", r.Epoch, q.Query)
			}
			for k, v := range q.Answer.Quantiles {
				if !finite(v) {
					return fmt.Errorf("epoch %d %s: non-finite %s", r.Epoch, q.Query, k)
				}
			}
			if q.TrueContrib < 0 || q.TrueContrib > sensors {
				return fmt.Errorf("epoch %d %s: trueContrib %d of %d sensors", r.Epoch, q.Query, q.TrueContrib, sensors)
			}
		}
	}
	return nil
}

// checkStats rejects a stats reply that reports a transport error or an
// epoch count other than the one the client has driven.
func checkStats(st statsResponse, epochs int) error {
	if st.TransportErr != "" {
		return fmt.Errorf("transportErr: %s", st.TransportErr)
	}
	if st.Epochs != epochs {
		return fmt.Errorf("stats report %d epochs, want %d", st.Epochs, epochs)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// client is one closed-loop caller of a tdserve: it sends its next request
// when the previous reply has been read in full.
type client struct {
	base string
	http *http.Client
	// respBytes is the body size of the last reply.
	respBytes int
}

// do sends one request and reads the whole reply. elapsed runs from just
// before the request is written until the last body byte is read — decoding
// and checking happen off the clock.
func (c *client) do(ctx context.Context, method, path string, body []byte) (reply []byte, elapsed time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	reply, err = io.ReadAll(resp.Body)
	elapsed = time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	c.respBytes = len(reply)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, 0, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(reply))
	}
	return reply, elapsed, nil
}

// create hosts spec under id and returns the sensor count tdserve reports.
func (c *client) create(ctx context.Context, id string, spec deploySpec) (sensors int, elapsed time.Duration, err error) {
	body, err := json.Marshal(spec.request(id))
	if err != nil {
		return 0, 0, err
	}
	reply, elapsed, err := c.do(ctx, http.MethodPost, "/v1/deployments", body)
	if err != nil {
		return 0, 0, err
	}
	var st statsResponse
	if err := json.Unmarshal(reply, &st); err != nil {
		return 0, 0, fmt.Errorf("create %s: undecodable reply: %w", id, err)
	}
	if err := checkStats(st, 0); err != nil {
		return 0, 0, fmt.Errorf("create %s: %w", id, err)
	}
	return st.Sensors, elapsed, nil
}

// run advances deployment id by rounds and decodes the reply.
func (c *client) run(ctx context.Context, id string, rounds int) ([]roundResponse, time.Duration, error) {
	body := []byte(fmt.Sprintf(`{"rounds":%d}`, rounds))
	reply, elapsed, err := c.do(ctx, http.MethodPost, "/v1/deployments/"+id+"/run", body)
	if err != nil {
		return nil, 0, err
	}
	var out []roundResponse
	if err := json.Unmarshal(reply, &out); err != nil {
		return nil, 0, fmt.Errorf("run %s: undecodable reply: %w", id, err)
	}
	return out, elapsed, nil
}

// stats fetches GET …/stats.
func (c *client) stats(ctx context.Context, id string) (statsResponse, time.Duration, error) {
	reply, elapsed, err := c.do(ctx, http.MethodGet, "/v1/deployments/"+id+"/stats", nil)
	if err != nil {
		return statsResponse{}, 0, err
	}
	var st statsResponse
	if err := json.Unmarshal(reply, &st); err != nil {
		return statsResponse{}, 0, fmt.Errorf("stats %s: undecodable reply: %w", id, err)
	}
	return st, elapsed, nil
}

// remove deletes deployment id.
func (c *client) remove(ctx context.Context, id string) (time.Duration, error) {
	_, elapsed, err := c.do(ctx, http.MethodDelete, "/v1/deployments/"+id, nil)
	return elapsed, err
}
