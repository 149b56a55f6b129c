// Package transport provides the UDP delivery backend for the runner's
// Transport seam — the one real node runtime beside the in-process
// simulator, which answers "did this frame arrive?" from the deterministic
// loss model while nothing actually moves. See DESIGN.md §5.
package transport

// UDP is the networked Transport backend: the node runtime leaves the
// process. Nodes are partitioned into shards (node v lives on shard v mod
// Shards), each shard is a separate OS process (or, with the default
// in-process spawner, a goroutine that still speaks real loopback sockets),
// and every delivery is a real UDP frame — packet loss, reordering and
// duplication are physical events rather than hash draws.
//
// Topology is a star: only the parent (the runner host) transmits, because
// the runner's Transport seam hands it every frame already routed — shards
// never talk to each other. The reliable control channel (one TCP loopback
// connection per shard) carries the join handshake, the epoch barrier and
// shutdown; the lossy data plane carries only datagrams.
//
// The data plane coalesces: all frames a round sends to one shard are
// packed into MTU-bounded batch datagrams (wire's 0xD8 framing), sealed the
// moment the next frame would not fit, and submitted to the socket in
// sendmmsg batches at the epoch barrier — a 600-node epoch costs a handful
// of syscalls instead of hundreds. Because a batch's frames carry
// consecutive sequence numbers, a lost datagram surfaces at the barrier as
// a contiguous missing *range*, and retransmission resends whole datagram
// images.
//
// One barrier, exactly once: the Deliver verdict comes from the seeded loss
// model (the same hash as the simulator, so answers are pinned
// bit-identical to the golden file), and every surviving frame is delivered
// to its shard exactly once — the barrier retransmits any datagram the
// loopback medium itself dropped, and the shard's per-round dedup absorbs
// the replays, keeping the receive-side accounting exact.
//
// The fleet is self-healing: a shard that fails its barrier is declared
// dead — that round's frames are attributed as losses — and handed to a
// supervisor goroutine, which reaps the old runtime, respawns a
// replacement with capped exponential backoff, re-runs the join/assign
// handshake mid-run, and rejoins the shard to the fleet at the next epoch
// boundary. Err stays nil across recovered faults; the Health snapshot
// records per-shard state, restart counts and epochs spent degraded.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tributarydelta/internal/network"
	"tributarydelta/internal/transport/batchio"
	"tributarydelta/internal/wire"
)

// ShardProc is a running shard runtime as seen by the parent: a process
// handle (or its in-process stand-in) the parent waits out at Close and
// kills if it will not exit.
type ShardProc interface {
	// Wait blocks until the shard runtime exits and returns its error; it
	// must be callable more than once.
	Wait() error
	// Kill forcibly terminates the shard runtime (no-op for in-process
	// shards, which exit when their sockets close).
	Kill() error
}

// Spawner launches the shard runtime for one shard index, telling it the
// parent's control address. The default spawner runs RunNode on a goroutine
// in this process — real sockets, no exec; SpawnExec launches a tdnode
// binary per shard. A Spawner must be safe for concurrent use: the
// supervisor goroutines respawn failed shards with it mid-run.
type Spawner func(controlAddr string, shard int) (ShardProc, error)

// UDPOptions configure a UDP transport.
type UDPOptions struct {
	// Shards is the number of shard processes nodes are partitioned over
	// (<= 0 means 1; clamped to the node count).
	Shards int
	// Deterministic is ignored: the exactly-once barrier with the seeded
	// loss model deciding Deliver verdicts is the only mode.
	//
	// Deprecated: the field has no effect. It goes with the benchmark
	// harness's last use of it (bench/trace.go), in the benchmark-defining
	// change of ROADMAP item 1(0).
	Deterministic bool
	// Stats, if non-nil, receives the backend-side accounting: per-node
	// receive deltas (AddRx), duplicates (AddDuplicates) and the rounds of
	// shards that died mid-barrier (AddLoss), all applied at the barrier on
	// the dispatch goroutine. Swappable via SetStats at the epoch barrier.
	Stats *network.Stats
	// Spawn launches each shard runtime; nil selects the in-process
	// default. The supervisor reuses it to respawn failed shards, so it
	// must be safe for concurrent use.
	Spawn Spawner
	// MaxDatagram caps the datagram size this side is willing to send;
	// <= 0 (or anything above wire.MaxUDPPayload) means wire.MaxUDPPayload.
	// The effective per-shard limit is the min of this and the shard's
	// advertised limit — the bound batch datagrams are sealed against. A
	// frame that cannot fit even alone fails its delivery and sets the
	// transport's sticky error.
	MaxDatagram int
	// BarrierTimeout caps one epoch barrier's control-channel round trips
	// per shard; a shard that cannot be flushed within it is declared dead
	// (its round's frames attributed as losses) and handed to the
	// supervisor for respawn — no hang either way. Within the budget,
	// individual control reads run under shorter per-attempt deadlines
	// (BarrierTimeout/4, floored at 50ms) so a transiently slow shard is
	// re-flushed rather than written off. <= 0 means 5s.
	BarrierTimeout time.Duration
	// JoinTimeout bounds each join/assign handshake: the initial fleet
	// joins at construction and every mid-run rejoin of a respawned shard.
	// <= 0 means 10s.
	JoinTimeout time.Duration
	// RespawnBackoff is the supervisor's delay before the first respawn
	// attempt of a failed shard; subsequent attempts double it up to
	// RespawnBackoffMax. <= 0 means 50ms.
	RespawnBackoff time.Duration
	// RespawnBackoffMax caps the exponential respawn backoff. <= 0 means
	// 2s (raised to RespawnBackoff when that is larger); NewUDP rejects an
	// explicit cap below RespawnBackoff.
	RespawnBackoffMax time.Duration
	// MaxRespawns bounds the consecutive failed respawn attempts per
	// failure episode before the shard is declared permanently failed
	// (which does set the sticky error). 0 means 8; must be >= 0.
	MaxRespawns int
	// AddrRewrite, if set, maps each shard's advertised UDP address to the
	// address the parent actually sends to — the seam a chaos-proxy test
	// interposes on. It runs once per join handshake — including mid-run
	// rejoins of respawned shards, which advertise a fresh port — and must
	// be safe for concurrent use (rejoins run on supervisor goroutines).
	AddrRewrite func(shard int, addr string) string
}

// Barrier and supervision tuning shared by parent and tests.
const (
	defaultBarrierTimeout    = 5 * time.Second
	defaultJoinTimeout       = 10 * time.Second
	defaultRespawnBackoff    = 50 * time.Millisecond
	defaultRespawnBackoffMax = 2 * time.Second
	defaultMaxRespawns       = 8
	minCtrlAttemptTimeout    = 50 * time.Millisecond
	reapTimeout              = 3 * time.Second
	minNegotiatedDatagram    = 512
	maxDetResends            = 64
)

// ShardState is a shard's supervision state in a Health snapshot.
type ShardState string

const (
	// ShardHealthy: joined and answering the barrier.
	ShardHealthy ShardState = "healthy"
	// ShardRespawning: declared dead at a barrier; the supervisor is
	// reaping the old runtime and respawning a replacement. Frames bound
	// for the shard are attributed as losses until it rejoins.
	ShardRespawning ShardState = "respawning"
	// ShardFailed: permanently failed — the respawn budget is exhausted.
	// The transport's sticky error is set.
	ShardFailed ShardState = "failed"
)

// ShardHealth is one shard's entry in a Health snapshot.
type ShardHealth struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// State is the shard's current supervision state.
	State ShardState `json:"state"`
	// Restarts counts completed respawn/rejoin cycles over the fleet's
	// lifetime.
	Restarts int `json:"restarts,omitempty"`
	// DegradedEpochs counts epoch barriers the shard missed while dead —
	// epochs whose frames for this shard were attributed as losses.
	DegradedEpochs int `json:"degradedEpochs,omitempty"`
	// LastErr is the most recent failure cause (barrier error, spawn
	// failure or exit status), empty while none has occurred.
	LastErr string `json:"lastErr,omitempty"`
}

// HealthSnapshot is a point-in-time view of the fleet's supervision state,
// safe to take from any goroutine (tdserve exposes it per deployment).
type HealthSnapshot struct {
	// Shards holds one entry per shard, by index.
	Shards []ShardHealth `json:"shards,omitempty"`
	// Restarts is the fleet-wide sum of completed respawn/rejoin cycles.
	Restarts int `json:"restarts"`
	// DegradedEpochs is the fleet-wide sum of shard-epochs spent dead.
	DegradedEpochs int `json:"degradedEpochs"`
	// Failed counts shards currently in the failed state.
	Failed int `json:"failed"`
}

// Healthy reports whether every shard is currently in the healthy state.
func (h HealthSnapshot) Healthy() bool {
	for _, sh := range h.Shards {
		if sh.State != ShardHealthy {
			return false
		}
	}
	return true
}

// shardHealth is the internal, mutex-guarded form of one shard's health.
type shardHealth struct {
	state    ShardState
	restarts int
	degraded int
	lastErr  string
}

// rejoin is a completed mid-run join handshake: the replacement runtime's
// process handle, control connection, resolved data-plane address and
// negotiated datagram limit. A supervisor publishes it through the shard's
// pending slot; the dispatch goroutine adopts it at the next BeginEpoch, so
// every shard field stays dispatch-owned.
type rejoin struct {
	proc        ShardProc
	ctrl        net.Conn
	addr        *net.UDPAddr
	maxDatagram int
}

// acceptedJoin is one join connection the acceptor has read and routed.
type acceptedJoin struct {
	conn net.Conn
	join ctrlMsg
}

// errSupervisionStopped marks a respawn attempt abandoned because the
// transport is closing — not a failure to count against the budget.
var errSupervisionStopped = errors.New("transport: supervision stopped")

// udpShard is the parent's view of one shard: its process handle, control
// connection, resolved data-plane address, and the current round's send
// state (dispatch-goroutine-owned; the flush goroutines only touch it
// between EndEpoch's spawn and join, which the WaitGroup orders; the
// supervisor touches only the atomic pending slot).
type udpShard struct {
	id          int
	proc        ShardProc
	ctrl        net.Conn
	addr        *net.UDPAddr
	maxDatagram int
	dead        bool
	// pending carries a supervisor's completed rejoin to the dispatch
	// goroutine, adopted at the next BeginEpoch.
	pending atomic.Pointer[rejoin]
	// sent counts the frames (sequence numbers) assigned this round.
	sent int
	// batch is the building batch datagram, sealed into dgrams when the
	// next frame would not fit; batchBase/batchN are its first sequence
	// number and frame count.
	batch     []byte
	batchBase int
	batchN    int
	// dgrams keeps the round's sealed datagram images — the send queue and
	// the retransmission store; buffers are recycled across rounds.
	// dgramBase records each datagram's first sequence number (ascending),
	// so a missing range maps back to whole datagrams by binary search.
	dgrams    [][]byte
	dgramBase []int
	// from records each seq's sender for loss attribution.
	from []int32
	// recvCalls/recvDatagrams mirror the shard's cumulative socket-level
	// receive counters from its last barrier reply (for IOStats).
	recvCalls, recvDatagrams int64
	// bufs, flushMsg, done and flushErr are the barrier's per-shard scratch:
	// the control frame buffers, the flush message, the reply it is decoded
	// into (lists refilled in place round over round) and the flush's
	// outcome, handed from the flushing goroutine to EndEpoch across the
	// WaitGroup.
	bufs     ctrlBufs
	flushMsg ctrlMsg
	done     ctrlMsg
	flushErr error
}

// UDP is the multi-process UDP transport. Construct with NewUDP; it
// implements runner.Transport, runner.EpochMarker and runner.StatsSetter.
// Like every backend, Deliver/BeginEpoch/EndEpoch are dispatch-goroutine-
// only; Close may be called from any goroutine once the run has quiesced
// and is idempotent. Health and Err are safe from any goroutine.
type UDP struct {
	nw   *network.Net
	opts UDPOptions
	// links caches the delivery views of the current epoch and frame (the
	// pre-folded loss hash prefixes); touched only by the dispatch
	// goroutine inside Deliver.
	links network.DeliveryCache
	conn  *net.UDPConn
	io    *batchio.Sender
	ioc   batchio.Counters
	// ln is the control listener, kept open for the transport's lifetime so
	// respawned shards can rejoin mid-run; ctrlAddr is its address, what
	// the Spawner is told.
	ln       net.Listener
	ctrlAddr string
	// stopc stops the supervisor goroutines; acceptWG/superWG join the
	// acceptor and supervisors at teardown.
	stopc    chan struct{}
	acceptWG sync.WaitGroup
	superWG  sync.WaitGroup
	// flushWG joins the per-shard barrier goroutines of one EndEpoch.
	flushWG sync.WaitGroup
	// rejoinWaiters routes accepted mid-run joins to the supervisor
	// awaiting that shard index.
	rejoinMu      sync.Mutex
	rejoinWaiters map[int]chan acceptedJoin
	// health is the per-shard supervision state behind Health().
	healthMu sync.Mutex
	health   []shardHealth
	// pending queues the round's sealed datagrams for one batched submit at
	// the epoch barrier.
	pending   []batchio.Message
	shards    []*udpShard
	round     uint64
	lost      atomic.Int64
	dupes     atomic.Int64
	errMu     sync.Mutex
	err       error
	closeOnce sync.Once
}

// NewUDP spawns the shard fleet, runs the join handshake (collecting each
// shard's UDP address and negotiating per-shard datagram limits) and
// returns the ready transport. On any failure it tears down whatever it
// spawned and returns the error. The caller must Close it.
func NewUDP(nw *network.Net, opts UDPOptions) (*UDP, error) {
	n := nw.Graph.N()
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.Shards > n {
		opts.Shards = n
	}
	if opts.MaxDatagram <= 0 || opts.MaxDatagram > wire.MaxUDPPayload {
		opts.MaxDatagram = wire.MaxUDPPayload
	}
	if opts.BarrierTimeout <= 0 {
		opts.BarrierTimeout = defaultBarrierTimeout
	}
	if opts.JoinTimeout <= 0 {
		opts.JoinTimeout = defaultJoinTimeout
	}
	if opts.RespawnBackoff <= 0 {
		opts.RespawnBackoff = defaultRespawnBackoff
	}
	if opts.RespawnBackoffMax <= 0 {
		opts.RespawnBackoffMax = defaultRespawnBackoffMax
		if opts.RespawnBackoffMax < opts.RespawnBackoff {
			opts.RespawnBackoffMax = opts.RespawnBackoff
		}
	}
	if opts.RespawnBackoffMax < opts.RespawnBackoff {
		return nil, fmt.Errorf("transport: RespawnBackoffMax %v below RespawnBackoff %v", opts.RespawnBackoffMax, opts.RespawnBackoff)
	}
	if opts.MaxRespawns < 0 {
		return nil, fmt.Errorf("transport: negative MaxRespawns %d", opts.MaxRespawns)
	}
	if opts.MaxRespawns == 0 {
		opts.MaxRespawns = defaultMaxRespawns
	}
	if opts.Spawn == nil {
		opts.Spawn = spawnInProcess
	}
	u := &UDP{
		nw: nw, opts: opts,
		shards:        make([]*udpShard, opts.Shards),
		stopc:         make(chan struct{}),
		rejoinWaiters: make(map[int]chan acceptedJoin),
		health:        make([]shardHealth, opts.Shards),
	}
	for i := range u.health {
		u.health[i].state = ShardHealthy
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: udp control listener: %w", err)
	}
	u.ln = ln
	u.ctrlAddr = ln.Addr().String()
	u.conn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("transport: udp send socket: %w", err)
	}
	_ = u.conn.SetWriteBuffer(1 << 22)
	u.io = batchio.NewSender(u.conn, &u.ioc)

	fail := func(err error) (*UDP, error) {
		u.teardown()
		return nil, err
	}
	for i := 0; i < opts.Shards; i++ {
		proc, err := opts.Spawn(u.ctrlAddr, i)
		if err != nil {
			return fail(fmt.Errorf("transport: spawn shard %d: %w", i, err))
		}
		u.shards[i] = &udpShard{id: i, proc: proc}
	}
	tl, _ := ln.(*net.TCPListener)
	for joined := 0; joined < opts.Shards; joined++ {
		if tl != nil {
			//lint:ignore determinism control-plane accept deadline; join timing never reaches the epoch path
			_ = tl.SetDeadline(time.Now().Add(opts.JoinTimeout))
		}
		c, err := ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("transport: waiting for shard joins (%d/%d): %w", joined, opts.Shards, err))
		}
		var join ctrlMsg
		//lint:ignore determinism control-plane I/O deadline; join timing never reaches the epoch path
		if err := readCtrl(c, time.Now().Add(opts.JoinTimeout), &join); err != nil {
			c.Close()
			return fail(fmt.Errorf("transport: shard join handshake: %w", err))
		}
		sh := u.shardForJoin(&join)
		if sh == nil {
			c.Close()
			return fail(fmt.Errorf("transport: invalid or duplicate shard join %+v", join))
		}
		rj, err := u.completeJoin(c, &join)
		if err != nil {
			c.Close()
			return fail(fmt.Errorf("transport: %w", err))
		}
		sh.ctrl, sh.addr, sh.maxDatagram = rj.ctrl, rj.addr, rj.maxDatagram
	}
	if tl != nil {
		_ = tl.SetDeadline(time.Time{})
	}
	u.acceptWG.Add(1)
	go u.acceptJoins()
	return u, nil
}

// shardForJoin matches a join message to its not-yet-joined shard slot, or
// nil if the message is invalid.
func (u *UDP) shardForJoin(join *ctrlMsg) *udpShard {
	if join.Type != ctrlJoin || join.Shard < 0 || join.Shard >= len(u.shards) {
		return nil
	}
	sh := u.shards[join.Shard]
	if sh == nil || sh.ctrl != nil || join.MaxDatagram < minNegotiatedDatagram {
		return nil
	}
	return sh
}

// completeJoin finishes one join handshake on an accepted control
// connection: resolve the advertised data-plane address (through
// AddrRewrite), negotiate the datagram limit and send the assignment. It
// serves both the initial fleet joins and mid-run rejoins; the caller owns
// the connection on error.
func (u *UDP) completeJoin(c net.Conn, join *ctrlMsg) (*rejoin, error) {
	addr := join.UDPAddr
	if u.opts.AddrRewrite != nil {
		addr = u.opts.AddrRewrite(join.Shard, addr)
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("shard %d udp address %q: %w", join.Shard, addr, err)
	}
	maxDgram := min(u.opts.MaxDatagram, join.MaxDatagram)
	if maxDgram < minNegotiatedDatagram {
		maxDgram = minNegotiatedDatagram
	}
	assign := ctrlMsg{
		Type: ctrlAssign, Nodes: u.nw.Graph.N(), Shards: len(u.shards),
		MaxDatagram: maxDgram,
	}
	//lint:ignore determinism control-plane I/O deadline; join timing never reaches the epoch path
	if err := writeCtrl(c, time.Now().Add(u.opts.JoinTimeout), &assign); err != nil {
		return nil, fmt.Errorf("shard %d assignment: %w", join.Shard, err)
	}
	return &rejoin{ctrl: c, addr: ua, maxDatagram: maxDgram}, nil
}

// acceptJoins routes mid-run join connections — respawned shards dialing
// back in — to the supervisor awaiting that shard index. It owns the
// control listener after construction and exits when teardown closes it;
// joins nobody is waiting for are dropped.
func (u *UDP) acceptJoins() {
	defer u.acceptWG.Done()
	for {
		c, err := u.ln.Accept()
		if err != nil {
			return
		}
		var join ctrlMsg
		//lint:ignore determinism control-plane I/O deadline; rejoin timing never reaches the epoch path
		if err := readCtrl(c, time.Now().Add(u.opts.JoinTimeout), &join); err != nil {
			c.Close()
			continue
		}
		if join.Type != ctrlJoin || join.Shard < 0 || join.Shard >= len(u.shards) ||
			join.MaxDatagram < minNegotiatedDatagram {
			c.Close()
			continue
		}
		u.rejoinMu.Lock()
		ch := u.rejoinWaiters[join.Shard]
		delete(u.rejoinWaiters, join.Shard)
		u.rejoinMu.Unlock()
		if ch == nil {
			c.Close()
			continue
		}
		ch <- acceptedJoin{conn: c, join: join}
	}
}

// nextBuf returns a recycled datagram buffer for the shard's next batch:
// the hidden capacity slot of dgrams, if one survives from a previous
// round, truncated to zero length. sealBatch must be the next dgrams
// mutation (Deliver's batch building guarantees it: one open batch per
// shard, sealed in order).
func (sh *udpShard) nextBuf() []byte {
	if n := len(sh.dgrams); cap(sh.dgrams) > n {
		sh.dgrams = sh.dgrams[:n+1]
		buf := sh.dgrams[n][:0]
		sh.dgrams = sh.dgrams[:n]
		return buf
	}
	return nil
}

// sealBatch closes the shard's building batch, if any, recording the
// finished datagram image — retransmission store and send queue entry —
// with its first sequence number.
func (u *UDP) sealBatch(sh *udpShard) {
	if sh.batchN == 0 {
		return
	}
	sh.dgrams = append(sh.dgrams, sh.batch)
	sh.dgramBase = append(sh.dgramBase, sh.batchBase)
	u.pending = append(u.pending, batchio.Message{Buf: sh.batch, Addr: sh.addr})
	sh.batch = nil
	sh.batchN = 0
}

// Deliver implements runner.Transport. The verdict comes from the seeded
// loss model; surviving frames are queued, and the barrier guarantees
// their exactly-once arrival. Frames accumulate into batch datagrams and
// hit the socket at EndEpoch; a false return on a dead shard or oversized
// frame lets the runner account the loss as usual.
func (u *UDP) Deliver(epoch, attempt, from, to int, frame []byte) bool {
	if !u.links.Delivered(u.nw, epoch, attempt, from, to) {
		return false
	}
	sh := u.shards[to%len(u.shards)]
	if sh.dead {
		u.lost.Add(1)
		return false
	}
	seq := sh.sent
	if seq >= wire.MaxDatagramSeq {
		u.setErr(fmt.Errorf("transport: round %d exceeded %d frames to shard %d", u.round, wire.MaxDatagramSeq, sh.id))
		return false
	}
	need := wire.BatchFrameLen(to, len(frame))
	if wire.DatagramBatchOverhead(u.round, seq)+need > sh.maxDatagram {
		u.setErr(fmt.Errorf("transport: frame of %d bytes exceeds shard %d's negotiated datagram size %d",
			len(frame), sh.id, sh.maxDatagram))
		return false
	}
	if sh.batchN > 0 && len(sh.batch)+need > sh.maxDatagram {
		u.sealBatch(sh)
	}
	if sh.batchN == 0 {
		sh.batch = wire.AppendDatagramBatch(sh.nextBuf(), u.round, seq)
		sh.batchBase = seq
	}
	sh.batch = wire.AppendBatchFrame(sh.batch, to, frame)
	sh.batchN++
	sh.from = append(sh.from, int32(from))
	sh.sent++
	return true
}

// BeginEpoch implements runner.EpochMarker: adopt any completed rejoins,
// then advance the barrier round. The round counter — not the epoch number
// — scopes datagram sequence spaces, because query-set members reuse epoch
// numbers across their sub-rounds. Adoption happens here, on the dispatch
// goroutine, so the shard's connection, address and datagram limit are
// stable for the whole round.
func (u *UDP) BeginEpoch(int) {
	u.round++
	for _, sh := range u.shards {
		if rj := sh.pending.Swap(nil); rj != nil {
			sh.proc, sh.ctrl, sh.addr, sh.maxDatagram = rj.proc, rj.ctrl, rj.addr, rj.maxDatagram
			sh.recvCalls, sh.recvDatagrams = 0, 0
			sh.dead = false
		}
		sh.sent = 0
		sh.from = sh.from[:0]
		sh.batch = nil
		sh.batchN = 0
		sh.dgrams = sh.dgrams[:0]
		sh.dgramBase = sh.dgramBase[:0]
	}
	u.pending = u.pending[:0]
}

// EndEpoch implements runner.EpochMarker: seal the open batches, submit the
// whole round's datagrams in one batched send, then flush every shard that
// received traffic this round (concurrently — each shard has its own
// control connection) and apply the collected receive deltas and
// duplicates to the current Stats target on the calling (dispatch)
// goroutine, preserving the transmit-side single-writer contract. A
// terminal barrier reply never lists missing frames: the flush retransmits
// until nothing is missing or gives the shard up. A shard that cannot be
// flushed within BarrierTimeout is declared dead: its round's frames are
// attributed as losses and the supervisor takes over respawning it — no
// hang, and no sticky error unless recovery itself is exhausted.
func (u *UDP) EndEpoch(int) {
	for _, sh := range u.shards {
		u.sealBatch(sh)
	}
	if len(u.pending) > 0 {
		if err := u.io.Send(u.pending); err != nil {
			u.setErr(fmt.Errorf("transport: batched send: %w", err))
		}
		u.pending = u.pending[:0]
	}
	for _, sh := range u.shards {
		if sh.dead || sh.sent == 0 {
			continue
		}
		u.flushWG.Add(1)
		go u.flushAsync(sh)
	}
	u.flushWG.Wait()
	st := u.opts.Stats
	for _, sh := range u.shards {
		if sh.dead {
			// A shard that stayed dead through the round missed its epoch;
			// Deliver already counted its frames as losses.
			u.noteDegraded(sh.id)
			continue
		}
		if sh.sent == 0 {
			continue
		}
		if sh.flushErr != nil {
			// The shard is gone mid-round: how much of the round it
			// processed is unknowable, so attribute the whole round as
			// lost — the conservative reading of a crashed receiver — and
			// hand the shard to the supervisor.
			u.lost.Add(int64(sh.sent))
			if st != nil {
				for _, from := range sh.from {
					st.AddLoss(int(from))
				}
			}
			u.declareDead(sh, sh.flushErr)
			u.noteDegraded(sh.id)
			continue
		}
		sh.recvCalls = sh.done.RecvCalls
		sh.recvDatagrams = sh.done.RecvDatagrams
		for _, d := range sh.done.Rx {
			if d.Node < 0 || d.Node >= u.nw.Graph.N() {
				continue
			}
			if st != nil {
				st.AddRx(d.Node, d.Frames, d.Bytes)
				if d.Dups > 0 {
					st.AddDuplicates(d.Node, d.Dups)
				}
			}
			u.dupes.Add(d.Dups)
		}
	}
}

// declareDead transitions a shard that failed its barrier into recovery:
// its control connection closes (so a stalled-but-alive runtime
// self-terminates through its control-read error path), the health state
// flips to respawning, and a supervisor goroutine takes over reaping and
// respawning. Dispatch-goroutine-only.
func (u *UDP) declareDead(sh *udpShard, cause error) {
	sh.dead = true
	ctrl, proc := sh.ctrl, sh.proc
	sh.ctrl, sh.proc = nil, nil
	if ctrl != nil {
		ctrl.Close()
	}
	u.setShardState(sh.id, ShardRespawning, cause)
	u.superWG.Add(1)
	go u.supervise(sh.id, proc)
}

// supervise reaps a dead shard's old runtime, then respawns it with capped
// exponential backoff until a replacement rejoins, the attempt budget is
// exhausted, or the transport closes. It runs on its own goroutine; a
// completed rejoin is handed to the dispatch goroutine through the shard's
// pending slot and adopted at the next BeginEpoch.
func (u *UDP) supervise(id int, proc ShardProc) {
	defer u.superWG.Done()
	if proc != nil {
		// Reap first: join the old runtime's exit and record its cause, so
		// a crash is distinguishable from a clean stop in the health
		// snapshot.
		_ = proc.Kill()
		if err := waitProc(proc, reapTimeout); err != nil {
			u.noteShardErr(id, fmt.Errorf("shard runtime exit: %w", err))
		}
	}
	backoff := u.opts.RespawnBackoff
	for attempt := 1; ; attempt++ {
		//lint:ignore determinism respawn backoff timer; supervision runs beside the epoch path — a recovering shard's frames are already attributed as losses, and answers never depend on when it rejoins
		t := time.NewTimer(backoff)
		select {
		case <-u.stopc:
			t.Stop()
			return
		case <-t.C:
		}
		rj, err := u.respawn(id)
		if err == nil {
			u.shards[id].pending.Store(rj)
			u.noteRejoined(id)
			return
		}
		if errors.Is(err, errSupervisionStopped) {
			return
		}
		u.noteShardErr(id, err)
		if attempt >= u.opts.MaxRespawns {
			u.setShardState(id, ShardFailed, err)
			u.setErr(fmt.Errorf("transport: shard %d: respawn budget exhausted after %d attempts: %w", id, attempt, err))
			return
		}
		backoff *= 2
		if backoff > u.opts.RespawnBackoffMax {
			backoff = u.opts.RespawnBackoffMax
		}
	}
}

// respawn launches one replacement runtime for a shard and runs the
// mid-run join/assign handshake, returning the ready rejoin record. On any
// failure the replacement is killed and reaped before the error returns.
func (u *UDP) respawn(id int) (*rejoin, error) {
	ch := make(chan acceptedJoin, 1)
	u.rejoinMu.Lock()
	u.rejoinWaiters[id] = ch
	u.rejoinMu.Unlock()
	cancel := func() {
		u.rejoinMu.Lock()
		if u.rejoinWaiters[id] == ch {
			delete(u.rejoinWaiters, id)
		}
		u.rejoinMu.Unlock()
		select {
		case aj := <-ch:
			aj.conn.Close()
		default:
		}
	}
	proc, err := u.opts.Spawn(u.ctrlAddr, id)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("respawn shard %d: %w", id, err)
	}
	reap := func() {
		_ = proc.Kill()
		_ = waitProc(proc, reapTimeout)
	}
	//lint:ignore determinism rejoin handshake timer; supervision runs beside the epoch path and never reaches answer bits
	t := time.NewTimer(u.opts.JoinTimeout)
	defer t.Stop()
	select {
	case aj := <-ch:
		rj, err := u.completeJoin(aj.conn, &aj.join)
		if err != nil {
			aj.conn.Close()
			reap()
			return nil, fmt.Errorf("respawn shard %d: %w", id, err)
		}
		rj.proc = proc
		return rj, nil
	case <-t.C:
		cancel()
		reap()
		return nil, fmt.Errorf("respawn shard %d: no rejoin within %v", id, u.opts.JoinTimeout)
	case <-u.stopc:
		cancel()
		reap()
		return nil, errSupervisionStopped
	}
}

// setShardState records a supervision state transition and its cause.
func (u *UDP) setShardState(id int, st ShardState, cause error) {
	u.healthMu.Lock()
	u.health[id].state = st
	if cause != nil {
		u.health[id].lastErr = cause.Error()
	}
	u.healthMu.Unlock()
}

// noteShardErr records a failure cause without changing the state.
func (u *UDP) noteShardErr(id int, cause error) {
	u.healthMu.Lock()
	u.health[id].lastErr = cause.Error()
	u.healthMu.Unlock()
}

// noteRejoined records a completed respawn/rejoin cycle.
func (u *UDP) noteRejoined(id int) {
	u.healthMu.Lock()
	u.health[id].state = ShardHealthy
	u.health[id].restarts++
	u.healthMu.Unlock()
}

// noteDegraded counts one epoch barrier a dead shard missed.
func (u *UDP) noteDegraded(id int) {
	u.healthMu.Lock()
	u.health[id].degraded++
	u.healthMu.Unlock()
}

// Health returns a snapshot of the fleet's supervision state: per-shard
// state, restart counts and epochs spent degraded. Safe from any
// goroutine; recovered faults appear here, not in Err.
func (u *UDP) Health() HealthSnapshot {
	u.healthMu.Lock()
	defer u.healthMu.Unlock()
	snap := HealthSnapshot{Shards: make([]ShardHealth, len(u.health))}
	for i, h := range u.health {
		snap.Shards[i] = ShardHealth{
			Shard: i, State: h.state,
			Restarts: h.restarts, DegradedEpochs: h.degraded,
			LastErr: h.lastErr,
		}
		snap.Restarts += h.restarts
		snap.DegradedEpochs += h.degraded
		if h.state == ShardFailed {
			snap.Failed++
		}
	}
	return snap
}

// ctrlAttemptDeadline bounds one control-plane I/O attempt: the earlier of
// now+attemptIO and the barrier's overall deadline.
func ctrlAttemptDeadline(deadline time.Time, attemptIO time.Duration) time.Time {
	//lint:ignore determinism per-attempt control-plane I/O deadline; bounds waiting at the barrier, never answer bits
	d := time.Now().Add(attemptIO)
	if d.After(deadline) {
		return deadline
	}
	return d
}

// budgetLeft reports whether the barrier's overall deadline has not passed.
func budgetLeft(deadline time.Time) bool {
	//lint:ignore determinism barrier liveness check; expiry surfaces as a shard failure handed to the supervisor, not a divergent answer
	return time.Now().Before(deadline)
}

// isTimeout classifies a control-plane I/O error: deadline expiries are
// transient (the shard may be slow or its link stalled — retry within the
// barrier budget); anything else (EOF, connection reset) means the peer is
// gone and is fatal.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// attemptTimeout derives the per-attempt control I/O deadline from the
// barrier budget: BarrierTimeout/4, floored at 50ms — several read
// attempts fit in one budget, so a transiently slow shard gets re-flushed
// instead of being written off at the first silence.
func (u *UDP) attemptTimeout() time.Duration {
	at := u.opts.BarrierTimeout / 4
	if at < minCtrlAttemptTimeout {
		at = minCtrlAttemptTimeout
	}
	if at > u.opts.BarrierTimeout {
		at = u.opts.BarrierTimeout
	}
	return at
}

// flushAsync is one EndEpoch's barrier goroutine for sh: the outcome lands
// in sh.flushErr (and sh.done), read after flushWG.Wait.
func (u *UDP) flushAsync(sh *udpShard) {
	defer u.flushWG.Done()
	sh.flushErr = u.flushShard(sh)
}

// readDone reads one barrier reply into sh.done, skipping stale done
// messages a timed-out earlier attempt left queued on the stream. A read
// timeout with budget remaining asks the caller to re-send the flush (first
// return true); any other failure is fatal.
func (u *UDP) readDone(sh *udpShard, deadline time.Time, attemptIO time.Duration) (bool, error) {
	done := &sh.done
	for {
		if err := sh.bufs.read(sh.ctrl, ctrlAttemptDeadline(deadline, attemptIO), done); err != nil {
			if isTimeout(err) && budgetLeft(deadline) {
				return true, nil
			}
			return false, fmt.Errorf("barrier reply: %w", err)
		}
		if done.Type != ctrlDone {
			return false, fmt.Errorf("unexpected barrier reply %q (round %d)", done.Type, u.round)
		}
		if done.Round < u.round {
			continue // stale reply from a superseded barrier attempt
		}
		if done.Round > u.round {
			return false, fmt.Errorf("barrier reply for future round %d (want %d)", done.Round, u.round)
		}
		return false, nil
	}
}

// flushShard runs one shard's barrier: flush, read done, and retransmit
// whatever the shard reports missing until nothing is, the timeout
// expires, or the control channel fails. Missing sequence ranges map back
// to whole sealed datagram images (by binary search over their base
// sequence numbers); the shard's dedup absorbs any frames of a resent
// datagram that had in fact arrived.
//
// Control I/O runs under bounded per-attempt deadlines within the overall
// BarrierTimeout budget: a read timeout re-sends the flush (the shard
// answers a duplicate flush idempotently, and readDone skips the stale
// replies), while a failed write or a non-timeout read error is fatal
// immediately — a reset connection means the peer is gone, and a timed-out
// write may have left a partial frame on the stream.
//
// On success the terminal reply is in sh.done.
func (u *UDP) flushShard(sh *udpShard) error {
	//lint:ignore determinism barrier liveness deadline; the barrier retransmits to exactly-once receipt, so timing bounds waiting, never answer bits
	deadline := time.Now().Add(u.opts.BarrierTimeout)
	attemptIO := u.attemptTimeout()
	var resend []batchio.Message
	resends := 0
	for {
		sh.flushMsg = ctrlMsg{Type: ctrlFlush, Round: u.round, Sent: sh.sent}
		if err := sh.bufs.write(sh.ctrl, ctrlAttemptDeadline(deadline, attemptIO), &sh.flushMsg); err != nil {
			return fmt.Errorf("barrier flush: %w", err)
		}
		retry, err := u.readDone(sh, deadline, attemptIO)
		if err != nil {
			return err
		}
		if retry {
			continue
		}
		done := &sh.done
		if len(done.Missing) == 0 {
			return nil
		}
		if resends >= maxDetResends || !budgetLeft(deadline) {
			missing := 0
			for _, rng := range done.Missing {
				missing += rng.Count
			}
			return fmt.Errorf("%d frames still missing after %d resends", missing, resends)
		}
		resends++
		resend = resend[:0]
		last := -1
		for _, rng := range done.Missing {
			if rng.First < 0 || rng.Count <= 0 || rng.First+rng.Count > sh.sent {
				return fmt.Errorf("shard reported unknown seq range [%d,%d)", rng.First, rng.First+rng.Count)
			}
			di := sort.SearchInts(sh.dgramBase, rng.First+1) - 1
			if di < 0 {
				return fmt.Errorf("no datagram covers seq %d", rng.First)
			}
			for ; di < len(sh.dgrams) && sh.dgramBase[di] < rng.First+rng.Count; di++ {
				if di <= last {
					continue // already queued by an earlier range
				}
				resend = append(resend, batchio.Message{Buf: sh.dgrams[di], Addr: sh.addr})
				last = di
			}
		}
		if err := u.io.Send(resend); err != nil {
			return fmt.Errorf("retransmit: %w", err)
		}
	}
}

// SetStats redirects the backend-side accounting to s, implementing
// runner.StatsSetter: it must only be called between EndEpoch and the next
// Deliver — exactly when a query-set mux port swaps members. Every UDP
// accounting write happens on the dispatch goroutine (at the barrier), so
// the swap needs no synchronization at all.
func (u *UDP) SetStats(s *network.Stats) { u.opts.Stats = s }

// Err returns the transport's sticky error: an oversized frame, a socket
// failure, or a shard that failed permanently (respawn budget exhausted).
// A shard death the supervisor recovers from is
// NOT an error — its epochs-as-losses and the restart appear in Health
// instead. A non-nil Err means some deliveries were force-counted as
// losses; answers remain whatever the runner computed.
func (u *UDP) Err() error {
	u.errMu.Lock()
	defer u.errMu.Unlock()
	return u.err
}

// setErr records the first failure.
func (u *UDP) setErr(err error) {
	u.errMu.Lock()
	if u.err == nil {
		u.err = err
	}
	u.errMu.Unlock()
}

// Lost returns the frames the backend itself counted as lost: frames bound
// for a dead shard, plus whole rounds of shards that died mid-barrier. Loss
// drawn from the seeded model is not included (those frames never become
// datagrams), nor is loss on the medium, which the barrier retransmits
// away. Frame-denominated: a round counts once per frame it carried.
func (u *UDP) Lost() int64 { return u.lost.Load() }

// Duplicates returns the duplicated frames shards have discarded
// (frame-denominated, like Lost). It is a lower bound on duplication in the
// medium: a copy that lands after its shard's terminal barrier reply is
// discarded with the round, unreported.
func (u *UDP) Duplicates() int64 { return u.dupes.Load() }

// Shards returns the shard count nodes are partitioned over.
func (u *UDP) Shards() int { return len(u.shards) }

// IOStats returns the transport's socket-level counters: the parent's send
// side (live) plus the shard fleet's receive side (as of each shard's last
// barrier reply). cmd/tdbench derives datagrams/epoch and syscalls/epoch
// from deltas of this snapshot. A respawned shard's receive counters
// restart from zero.
func (u *UDP) IOStats() batchio.Snapshot {
	s := u.ioc.Snapshot()
	for _, sh := range u.shards {
		s.RecvCalls += sh.recvCalls
		s.RecvDatagrams += sh.recvDatagrams
	}
	return s
}

// Close stops the fleet: the supervisors and the join acceptor wind down,
// each live shard gets a stop message (answered by bye), the sockets
// close, and every shard process is waited out — or killed if it will not
// exit. Idempotent; Deliver must not be called afterwards.
func (u *UDP) Close() {
	u.closeOnce.Do(u.teardown)
}

// teardown is Close's body, shared with NewUDP's failure path.
func (u *UDP) teardown() {
	close(u.stopc)
	if u.ln != nil {
		u.ln.Close()
	}
	u.acceptWG.Wait()
	u.superWG.Wait()
	for _, sh := range u.shards {
		if sh == nil {
			continue
		}
		// A rejoin completed but never adopted winds down like a live shard.
		if rj := sh.pending.Swap(nil); rj != nil {
			sh.proc, sh.ctrl, sh.dead = rj.proc, rj.ctrl, false
		}
		if sh.ctrl == nil {
			continue
		}
		if !sh.dead {
			//lint:ignore determinism shutdown I/O deadline; teardown timing never reaches the epoch path
			dl := time.Now().Add(2 * time.Second)
			if writeCtrl(sh.ctrl, dl, &ctrlMsg{Type: ctrlStop}) == nil {
				var bye ctrlMsg
				_ = readCtrl(sh.ctrl, dl, &bye)
			}
		}
		sh.ctrl.Close()
	}
	if u.conn != nil {
		u.conn.Close()
	}
	for _, sh := range u.shards {
		if sh == nil || sh.proc == nil {
			continue
		}
		_ = waitProc(sh.proc, reapTimeout)
	}
}

// waitProc waits a shard runtime out, escalating to Kill at the timeout,
// and returns the exit cause — nil for a clean stop, the runtime's error
// for a crash or kill. The wait goroutine is always joined: after Kill the
// runtime's exit is assured (SIGKILL for exec shards, closed sockets for
// in-process ones), so the post-kill wait blocks for the cause instead of
// leaking the goroutine and discarding it.
func waitProc(p ShardProc, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- p.Wait() }()
	//lint:ignore determinism teardown escalation timer; process reaping never reaches the epoch path
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		_ = p.Kill()
		return <-done
	}
}

// SpawnInProcess is the default Spawner (what a nil UDPOptions.Spawn
// selects): the shard runtime runs on a goroutine in this process — the
// topology, sockets and protocol are identical to a separate tdnode
// process; only the process boundary is elided. Exported so wrappers (the
// chaos driver's fault-injecting spawner) can interpose on the default.
func SpawnInProcess(controlAddr string, shard int) (ShardProc, error) {
	return spawnInProcess(controlAddr, shard)
}

func spawnInProcess(controlAddr string, shard int) (ShardProc, error) {
	p := &inprocShard{done: make(chan error, 1)}
	go func() { p.done <- RunNode(controlAddr, shard) }()
	return p, nil
}

// inprocShard adapts the in-process shard goroutine to ShardProc.
type inprocShard struct {
	done chan error
	once sync.Once
	err  error
}

// Wait implements ShardProc.
func (p *inprocShard) Wait() error {
	p.once.Do(func() { p.err = <-p.done })
	return p.err
}

// Kill implements ShardProc: in-process shards exit when their sockets
// close, so there is nothing to kill.
func (p *inprocShard) Kill() error { return nil }

// SpawnExec returns a Spawner that launches one OS process per shard:
// `binary [args...] -control <addr> -shard <i>` — the cmd/tdnode contract.
// The children inherit this process's stderr for diagnostics.
func SpawnExec(binary string, args ...string) Spawner {
	return func(controlAddr string, shard int) (ShardProc, error) {
		argv := append(append([]string(nil), args...),
			"-control", controlAddr, "-shard", strconv.Itoa(shard))
		cmd := exec.Command(binary, argv...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return &execShard{cmd: cmd}, nil
	}
}

// execShard adapts an exec'd tdnode process to ShardProc.
type execShard struct {
	cmd  *exec.Cmd
	once sync.Once
	err  error
}

// Wait implements ShardProc, memoizing the process exit status.
func (p *execShard) Wait() error {
	p.once.Do(func() { p.err = p.cmd.Wait() })
	return p.err
}

// Kill implements ShardProc with SIGKILL.
func (p *execShard) Kill() error { return p.cmd.Process.Kill() }
