package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// The end-to-end run: set every workload's tdserve up, then measure them in
// interleaved slices. See README "Measurement protocol" for why the run has
// this shape.

// runConfig is everything a run is made from.
type runConfig struct {
	ServerBin string // built cmd/tdserve
	OutDir    string // tdserve logs land here
	Seed      uint64
	Slices    int
	SliceDur  time.Duration
	// Setups is how many times each workload is set up from a fresh child;
	// setup_s is their median and the last one is kept for measuring.
	Setups int
	NProc  int
	// Refs caches the in-process references, shared by every run of the
	// process (a traced run checks four more stacks against the same ones).
	Refs references
}

// references caches in-process reference runs of the warm-up by spec.
type references map[string]reference

// warmup returns the spec's reference for epochs [0, warmupEpochs),
// computing it on first use.
func (rs references) warmup(spec deploySpec) (reference, error) {
	key := spec.String()
	if ref, ok := rs[key]; ok {
		return ref, nil
	}
	ref, err := computeReference(spec, warmupEpochs)
	if err != nil {
		return ref, fmt.Errorf("reference for %s: %w", spec, err)
	}
	rs[key] = ref
	return ref, nil
}

// verifyCycles bounds how many lifecycle cycles per workload have their
// answers recomputed in process after the run (each costs a field
// construction plus lifecycleRounds epochs); the rest are checked
// structurally.
const verifyCycles = 8

// requestTimeout turns a hung request into a failed one.
const requestTimeout = 30 * time.Second

// resident is one hosted deployment as its client tracks it.
type resident struct {
	id      string
	spec    deploySpec
	sensors int
	next    int // epochs completed so far
}

// cycleRecord is one lifecycle cycle.
type cycleRecord struct {
	seed    uint64
	ms      float64         // the four requests' latencies, summed
	create  time.Duration   // of which the create request
	stats   time.Duration   // and the stats request
	reply   int             // body bytes of the batch run's reply
	runDone time.Time       // when the batch run's reply had been read
	rounds  []roundResponse // kept for the first verifyCycles cycles
}

// sliceRecord is what one slice measured.
type sliceRecord struct {
	p50ms, tailms float64
	samples       int
	epochs        int
	elapsed       time.Duration
	cpu           time.Duration
	cycles        []cycleRecord
}

// tally counts requests. Client B runs on its own goroutine, hence atomics.
type tally struct {
	attempted, failed atomic.Int64
	firstErr          atomic.Pointer[error]
}

// record books one request (or check) and reports whether it succeeded.
func (t *tally) record(err error) bool {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
		t.firstErr.CompareAndSwap(nil, &err)
	}
	return err == nil
}

// liveWorkload is a workload with its server up.
type liveWorkload struct {
	w         workload
	cfg       runConfig
	srv       *server
	a, b      *client
	residents []*resident
	rng       *rand.Rand
	tally     tally
	cycleSeq  int
	// dead is set once the server has been seen gone; every later slice then
	// books one failed request instead of hanging on a closed port.
	dead bool

	setupS  []float64
	slices  []sliceRecord
	samples []float64 // reused per slice
	// The paper's cost axes over warm-up epochs [windowStart, windowEnd).
	windowBytes   int64
	windowSqErr   float64
	windowContrib float64
	windowN       int
	rssMB         float64
}

// newHTTPClient makes the one HTTP client of a run: keep-alive connections,
// at most nproc of them per server.
func newHTTPClient(nproc int) *http.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: requestTimeout}
}

// setUp starts a fresh child, creates the residents and warms them up,
// checking every warm-up answer against the reference. It returns the setup
// time; a failed request is tallied, not returned — only a child that cannot
// be started at all is an error.
func (lw *liveWorkload) setUp(ctx context.Context, hc *http.Client, try int) (time.Duration, error) {
	start := time.Now()
	logPath := filepath.Join(lw.cfg.OutDir, fmt.Sprintf("tdserve-%s-%d.log", lw.w.Name, try))
	srv, err := startServer(ctx, lw.cfg.ServerBin, logPath, lw.cfg.NProc, hc)
	if err != nil {
		return 0, err
	}
	lw.srv = srv
	lw.a = &client{base: srv.base, http: hc}
	lw.b = &client{base: srv.base, http: hc}
	lw.residents = lw.residents[:0]
	lw.windowBytes, lw.windowSqErr, lw.windowContrib, lw.windowN = 0, 0, 0, 0
	for i, spec := range lw.w.Residents(lw.cfg.NProc) {
		r := &resident{id: fmt.Sprintf("r%d", i), spec: spec}
		sensors, _, err := lw.a.create(ctx, r.id, spec)
		if lw.tally.record(err) {
			r.sensors = sensors
			lw.residents = append(lw.residents, r)
		}
	}
	for _, r := range lw.residents {
		lw.warmUp(ctx, r)
	}
	return time.Since(start), nil
}

// warmBatch is the rounds per warm-up request; it divides windowStart and
// windowEnd so the stats snapshots land on the window's edges.
const warmBatch = 100

// warmUp runs the resident's first warmupEpochs epochs, compares each answer
// with the reference and accumulates the cost axes over the fixed window.
func (lw *liveWorkload) warmUp(ctx context.Context, r *resident) {
	ref, err := lw.cfg.Refs.warmup(r.spec)
	if !lw.tally.record(err) {
		return
	}
	var bytesAtStart int64
	for r.next < warmupEpochs {
		if r.next == windowStart {
			st, ok := lw.checkedStats(ctx, lw.a, r)
			if !ok {
				return
			}
			bytesAtStart = st.Stats.TotalBytes
		}
		rounds, _, err := lw.a.run(ctx, r.id, warmBatch)
		if err == nil {
			err = checkRounds(rounds, r.next, warmBatch, len(r.spec.Aggregates), r.sensors)
		}
		if err == nil {
			for i, got := range rounds {
				if !equalRound(got, ref.Rounds[r.next+i]) {
					err = fmt.Errorf("%s epoch %d differs from the in-process reference", r.id, r.next+i)
					break
				}
			}
		}
		if !lw.tally.record(err) {
			return
		}
		for i, got := range rounds {
			if e := r.next + i; e >= windowStart && e < windowEnd {
				count := got.Results[0] // every spec lists count first
				rel := (count.Answer.Scalar - float64(r.sensors)) / float64(r.sensors)
				lw.windowSqErr += rel * rel
				lw.windowContrib += float64(count.TrueContrib) / float64(r.sensors)
				lw.windowN++
			}
		}
		r.next += warmBatch
	}
	st, ok := lw.checkedStats(ctx, lw.a, r)
	if !ok {
		return
	}
	window := st.Stats.TotalBytes - bytesAtStart
	if window != ref.WindowBytes {
		lw.tally.record(fmt.Errorf("%s sent %d bytes over the window, the in-process reference %d", r.id, window, ref.WindowBytes))
		return
	}
	lw.windowBytes += window
}

// checkedStats fetches and checks a resident's stats, tallying the request.
func (lw *liveWorkload) checkedStats(ctx context.Context, c *client, r *resident) (statsResponse, bool) {
	st, _, err := c.stats(ctx, r.id)
	if err == nil {
		err = checkStats(st, r.next)
	}
	return st, lw.tally.record(err)
}

// cycle runs one lifecycle cycle on client c: create an ephemeral deployment
// on a field drawn from the run's seed, run one batch, read its stats, delete
// it. A failed step fails the cycle; the deployment is still deleted.
func (lw *liveWorkload) cycle(ctx context.Context, c *client, id string, seed uint64, keepRounds bool) (cycleRecord, bool) {
	spec := lw.w.Ephemeral
	spec.Seed = seed
	rec := cycleRecord{seed: seed}
	sensors, dCreate, err := c.create(ctx, id, spec)
	if !lw.tally.record(err) {
		return rec, false
	}
	rounds, dRun, err := c.run(ctx, id, lifecycleRounds)
	rec.runDone, rec.reply = time.Now(), c.respBytes
	if err == nil {
		err = checkRounds(rounds, 0, lifecycleRounds, len(spec.Aggregates), sensors)
	}
	ok := lw.tally.record(err)
	if ok && keepRounds {
		rec.rounds = rounds
	}
	var dStats time.Duration
	if ok {
		var st statsResponse
		if st, dStats, err = c.stats(ctx, id); err == nil {
			err = checkStats(st, lifecycleRounds)
		}
		ok = lw.tally.record(err)
	}
	dRemove, err := c.remove(ctx, id)
	if !lw.tally.record(err) {
		return rec, false
	}
	rec.ms, rec.create, rec.stats = msOf(dCreate+dRun+dStats+dRemove), dCreate, dStats
	return rec, ok
}

// churnResult is what client B did during one slice.
type churnResult struct {
	cycles   []cycleRecord
	attempts int
}

// churn is client B: lifecycle cycles back to back until stop is set.
func (lw *liveWorkload) churn(ctx context.Context, stop *atomic.Bool, rng *rand.Rand) (res churnResult) {
	base := lw.cycleSeq // A does not touch cycleSeq until B has returned
	for ; !stop.Load() && ctx.Err() == nil && !lw.srv.dead(); res.attempts++ {
		n := base + res.attempts
		if c, ok := lw.cycle(ctx, lw.b, fmt.Sprintf("e%d", n), rng.Uint64(), n < verifyCycles); ok {
			res.cycles = append(res.cycles, c)
		}
	}
	return res
}

// runSlice measures one slice: client A visits the residents in passes for
// dur; the lifecycle cycles run beside it (Churn) or after it.
func (lw *liveWorkload) runSlice(ctx context.Context) {
	if lw.dead || len(lw.residents) == 0 {
		lw.tally.record(errors.New("tdserve is gone; slice skipped"))
		return
	}
	var rec sliceRecord
	lw.samples = lw.samples[:0]
	order := make([]int, len(lw.residents))
	for i := range order {
		order[i] = i
	}

	var stopB atomic.Bool
	bDone := make(chan churnResult, 1)
	if lw.w.Churn {
		// Client B's seeds are drawn here, on A's goroutine, so the two
		// clients never share the generator.
		bRng := rand.New(rand.NewPCG(lw.rng.Uint64(), lw.rng.Uint64()))
		go func() { bDone <- lw.churn(ctx, &stopB, bRng) }()
	}

	cpu0, cpuErr := lw.srv.cpuTime()
	start := time.Now()
	deadline := start.Add(lw.cfg.SliceDur)
	for time.Now().Before(deadline) && ctx.Err() == nil && !lw.dead {
		lw.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var pass time.Duration
		clean := true
		for _, i := range order {
			r := lw.residents[i]
			rounds, d, err := lw.a.run(ctx, r.id, 1)
			if err == nil {
				err = checkRounds(rounds, r.next, 1, len(r.spec.Aggregates), r.sensors)
			}
			if !lw.tally.record(err) {
				clean = false
				if lw.srv.dead() {
					lw.dead = true
					break
				}
				lw.resync(ctx, r)
				continue
			}
			r.next++
			rec.epochs++
			pass += d
		}
		if clean {
			lw.samples = append(lw.samples, msOf(pass)/float64(len(order)))
		}
	}
	rec.elapsed = time.Since(start)
	if cpu1, err := lw.srv.cpuTime(); err == nil && cpuErr == nil {
		rec.cpu = cpu1 - cpu0
	}
	end := start.Add(rec.elapsed)

	if lw.w.Churn {
		stopB.Store(true)
		b := <-bDone
		rec.cycles = b.cycles
		lw.cycleSeq += b.attempts
		for _, c := range rec.cycles {
			if !c.runDone.After(end) {
				rec.epochs += lifecycleRounds
			}
		}
	} else if !lw.dead {
		for n := 0; n < cyclesPerSlice && ctx.Err() == nil; n++ {
			c, ok := lw.cycle(ctx, lw.b, fmt.Sprintf("e%d", lw.cycleSeq+n), lw.rng.Uint64(), lw.cycleSeq+n < verifyCycles)
			if ok {
				rec.cycles = append(rec.cycles, c)
			}
		}
		lw.cycleSeq += cyclesPerSlice
	}

	// Off the clock: a transport error or an epoch the client did not drive
	// shows in the residents' stats.
	if !lw.dead {
		for _, r := range lw.residents {
			lw.checkedStats(ctx, lw.a, r)
		}
	}

	sort.Float64s(lw.samples)
	rec.samples = len(lw.samples)
	rec.p50ms = percentile(lw.samples, 0.5)
	rec.tailms = percentile(lw.samples, tailPercentile(rec.samples))
	lw.slices = append(lw.slices, rec)
}

// resync re-reads a resident's epoch count after a failed run request, so
// one bad reply does not make every later epoch look non-consecutive.
func (lw *liveWorkload) resync(ctx context.Context, r *resident) {
	if st, _, err := lw.a.stats(ctx, r.id); err == nil {
		r.next = st.Epochs
	}
}

// verifyCycleAnswers recomputes the kept lifecycle answers in process.
func (lw *liveWorkload) verifyCycleAnswers() {
	for _, s := range lw.slices {
		for _, c := range s.cycles {
			if c.rounds == nil {
				continue
			}
			spec := lw.w.Ephemeral
			spec.Seed = c.seed
			ref, err := computeReference(spec, lifecycleRounds)
			for i := 0; err == nil && i < len(c.rounds); i++ {
				if !equalRound(c.rounds[i], ref.Rounds[i]) {
					err = fmt.Errorf("lifecycle seed %d epoch %d differs from the in-process reference", c.seed, i)
				}
			}
			if err != nil {
				// The request was tallied as attempted when it was made.
				lw.tally.failed.Add(1)
				lw.tally.firstErr.CompareAndSwap(nil, &err)
			}
		}
	}
}

// runWorkloads is the whole end-to-end run over ws.
func runWorkloads(ctx context.Context, cfg runConfig, ws []workload) ([]workloadResult, error) {
	hc := newHTTPClient(cfg.NProc)
	defer hc.CloseIdleConnections()
	live := make([]*liveWorkload, 0, len(ws))
	defer func() {
		for _, lw := range live {
			if lw.srv != nil {
				lw.srv.stop()
			}
		}
	}()
	for _, w := range ws {
		for _, spec := range w.Residents(cfg.NProc) { // off the set-up's clock
			if _, err := cfg.Refs.warmup(spec); err != nil {
				return nil, err
			}
		}
		lw := &liveWorkload{w: w, cfg: cfg, rng: rand.New(rand.NewPCG(cfg.Seed, 0x7d5eed))}
		live = append(live, lw)
		for try := 0; try < cfg.Setups; try++ {
			if lw.srv != nil {
				lw.srv.stop()
			}
			d, err := lw.setUp(ctx, hc, try)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			lw.setupS = append(lw.setupS, d.Seconds())
		}
	}
	// Slices interleave round-robin across the workloads, so host drift on
	// the 10–30 s scale hits all of them alike; idle servers cost nothing.
	for s := 0; s < cfg.Slices && ctx.Err() == nil; s++ {
		for _, lw := range live {
			lw.runSlice(ctx)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]workloadResult, 0, len(live))
	for _, lw := range live {
		if rss, err := lw.srv.peakRSSMB(); err == nil {
			lw.rssMB = rss
		}
		lw.srv.stop()
		lw.srv = nil
		lw.verifyCycleAnswers()
		results = append(results, lw.result())
	}
	return results, nil
}

// result folds the slices into the workload's reported metrics.
func (lw *liveWorkload) result() workloadResult {
	res := workloadResult{
		Name:      lw.w.Name,
		Attempted: int(lw.tally.attempted.Load()),
		Failed:    int(lw.tally.failed.Load()),
		Metrics:   map[string]metricValue{},
	}
	if e := lw.tally.firstErr.Load(); e != nil {
		res.FirstError = (*e).Error()
	}
	var p50, tail, eps, cpu, life, creates, stats, replies []float64
	for _, s := range lw.slices {
		if s.samples == 0 || s.epochs == 0 {
			continue
		}
		res.Samples += s.samples
		p50 = append(p50, s.p50ms)
		tail = append(tail, s.tailms)
		eps = append(eps, float64(s.epochs)/s.elapsed.Seconds())
		cpu = append(cpu, usOf(s.cpu)/float64(s.epochs))
		if len(s.cycles) > 0 {
			ms := make([]float64, len(s.cycles))
			for i, c := range s.cycles {
				ms[i] = c.ms
				creates = append(creates, msOf(c.create))
				stats = append(stats, usOf(c.stats))
				replies = append(replies, float64(c.reply))
			}
			life = append(life, median(ms))
		}
		if tp := tailPercentile(s.samples); res.TailPercentile == 0 || tp < res.TailPercentile {
			res.TailPercentile = tp
		}
	}
	timing := func(name string, xs []float64) {
		def := endToEndDef(name)
		sp := quartiles(xs)
		res.Metrics[name] = metricValue{
			Value: sp.best(def.HigherBetter), Unit: def.Unit,
			Median: sp.Median, Q1: sp.Q1, Q3: sp.Q3, Slices: sp.N, PerSlice: xs,
		}
	}
	timing("run_p50_ms", p50)
	timing("run_p99_ms", tail)
	timing("epochs_per_s", eps)
	timing("cpu_us_per_epoch", cpu)
	timing("lifecycle_p50_ms", life)
	exact := func(name string, v float64) {
		res.Metrics[name] = metricValue{Value: v, Unit: endToEndDef(name).Unit}
	}
	n := float64(lw.windowN)
	exact("bytes_per_epoch", float64(lw.windowBytes)/n)
	exact("rms_rel_err", math.Sqrt(lw.windowSqErr/n))
	exact("contrib_pct", 100*lw.windowContrib/n)
	exact("rss_mb", lw.rssMB)
	exact("setup_s", median(lw.setupS))
	// Single-layer views of the lifecycle cycle, reported by the traced run.
	res.Metrics["tdserve.create_ms"] = metricValue{Value: median(creates)}
	res.Metrics["tdserve.stats_us"] = metricValue{Value: median(stats)}
	res.Metrics["tdserve.resp_bytes"] = metricValue{Value: median(replies)}
	exact("failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)))
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.dropUnmeasured()
	return res
}
