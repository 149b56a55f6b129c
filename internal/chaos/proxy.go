package chaos

// The driver's two proxy types: a UDP data-plane proxy applying the seeded
// noise model plus the blackhole gate, and a TCP control-channel proxy
// whose byte flow a stall window can freeze. Both live on loopback between
// the parent and one shard, created lazily per shard as the transport's
// spawn/join hooks fire.

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"tributarydelta/internal/wire"
)

// frameCount decodes how many envelope frames one data-plane datagram
// carries: a 0xD8 batch holds its entry count; anything else carries none
// the shard would accept. The proxies' ground truth is frame-denominated
// because the transport's Lost/Duplicates accounting is — dropping one
// batch datagram loses every frame inside it.
func frameCount(pkt []byte) int64 {
	b, err := wire.DecodeDatagramBatch(pkt)
	if err != nil {
		return 0
	}
	for b.Next() {
	}
	return int64(b.Len())
}

// dataProxy sits between the parent's send socket and one shard's UDP
// socket. Outside blackhole windows, every forwarded datagram rolls one
// seeded RNG draw: drop, duplicate, reorder (held until the next datagram
// displaces it or the delay timer fires), or clean forward — first match
// wins. Inside a blackhole window everything is swallowed, without
// consuming draws, so the noise sequence is unperturbed by fault windows.
type dataProxy struct {
	ln  *net.UDPConn
	dst *net.UDPAddr

	mu           sync.Mutex
	rng          *rand.Rand
	drop, dup    float64
	reorder      float64
	reorderDelay time.Duration
	blackhole    bool
	held         []byte
	heldTimer    *time.Timer
	c            Counters
	closed       bool
}

func newDataProxy(seed int64, sched Schedule, dst string) (*dataProxy, error) {
	addr, err := net.ResolveUDPAddr("udp", dst)
	if err != nil {
		return nil, err
	}
	ln, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	p := &dataProxy{
		ln: ln, dst: addr,
		rng:  rand.New(rand.NewSource(seed)),
		drop: sched.Drop, dup: sched.Dup, reorder: sched.Reorder,
		reorderDelay: sched.ReorderDelay,
	}
	go p.run()
	return p, nil
}

// front is the address the parent sends to instead of the shard's own.
func (p *dataProxy) front() string { return p.ln.LocalAddr().String() }

// inherit carries the predecessor proxy's accumulated counters and
// blackhole gate into this replacement (a respawned shard's). The RNG is
// not inherited: it restarts from the shard's seed, keeping the draw
// sequence a pure function of (seed, datagram order since rejoin).
func (p *dataProxy) inherit(old *dataProxy) {
	old.mu.Lock()
	c, bh := old.c, old.blackhole
	old.mu.Unlock()
	p.mu.Lock()
	p.c, p.blackhole = c, bh
	p.mu.Unlock()
}

func (p *dataProxy) setBlackhole(on bool) {
	p.mu.Lock()
	p.blackhole = on
	p.mu.Unlock()
}

func (p *dataProxy) addTo(c *Counters) {
	p.mu.Lock()
	c.Dropped += p.c.Dropped
	c.Dupped += p.c.Dupped
	c.Reordered += p.c.Reordered
	c.Blackholed += p.c.Blackholed
	p.mu.Unlock()
}

func (p *dataProxy) close() {
	p.mu.Lock()
	p.closed = true
	if p.heldTimer != nil {
		p.heldTimer.Stop()
	}
	p.held = nil
	p.mu.Unlock()
	p.ln.Close()
}

func (p *dataProxy) run() {
	buf := make([]byte, 1<<16)
	for {
		n, _, err := p.ln.ReadFromUDP(buf)
		if err != nil {
			return
		}
		pkt := append([]byte(nil), buf[:n]...)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		switch {
		case p.blackhole:
			p.c.Blackholed += frameCount(pkt)
		default:
			switch r := p.rng.Float64(); {
			case r < p.drop:
				p.c.Dropped += frameCount(pkt)
			case r < p.drop+p.dup:
				p.c.Dupped += frameCount(pkt)
				p.forwardLocked(pkt)
				p.forwardLocked(pkt)
				p.flushHeldLocked()
			case r < p.drop+p.dup+p.reorder && p.held == nil:
				p.c.Reordered++
				p.held = pkt
				p.heldTimer = time.AfterFunc(p.reorderDelay, p.flushHeld)
			default:
				p.forwardLocked(pkt)
				p.flushHeldLocked()
			}
		}
		p.mu.Unlock()
	}
}

func (p *dataProxy) forwardLocked(pkt []byte) { _, _ = p.ln.WriteToUDP(pkt, p.dst) }

func (p *dataProxy) flushHeld() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushHeldLocked()
}

// flushHeldLocked releases a held (reordered) datagram after its successor.
func (p *dataProxy) flushHeldLocked() {
	if p.held == nil {
		return
	}
	p.forwardLocked(p.held)
	p.held = nil
	if p.heldTimer != nil {
		p.heldTimer.Stop()
	}
}

// ctrlProxy fronts one shard's control channel: the shard runtime dials
// the front listener, the proxy dials the real parent address, and bytes
// are copied both ways through a stall gate. The front persists for the
// driver's lifetime, so a respawned shard dials the same address — and
// inherits an open stall window, which keeps its rejoin handshake frozen
// until the window heals (the supervisor's backoff absorbs the retries).
type ctrlProxy struct {
	ln     net.Listener
	parent string

	mu     sync.Mutex
	stallc chan struct{} // non-nil while stalled; closed to heal
	conns  []net.Conn
	closed bool
}

func newCtrlProxy(parent string) (*ctrlProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &ctrlProxy{ln: ln, parent: parent}
	go p.accept()
	return p, nil
}

// front is the control address the shard runtime dials instead of the
// parent's own.
func (p *ctrlProxy) front() string { return p.ln.Addr().String() }

func (p *ctrlProxy) accept() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.parent)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			up.Close()
			return
		}
		p.conns = append(p.conns, c, up)
		p.mu.Unlock()
		go p.pipe(up, c)
		go p.pipe(c, up)
	}
}

// pipe copies src to dst through the stall gate. Either side failing tears
// both down, so a parent-side close — the supervisor declaring the shard
// dead — propagates through to the shard runtime, which exits via its
// control-read error path exactly as it would without the proxy.
func (p *ctrlProxy) pipe(dst, src net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.gate()
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	src.Close()
	dst.Close()
}

// gate blocks while a stall window is open.
func (p *ctrlProxy) gate() {
	for {
		p.mu.Lock()
		ch := p.stallc
		p.mu.Unlock()
		if ch == nil {
			return
		}
		<-ch
	}
}

func (p *ctrlProxy) stall() {
	p.mu.Lock()
	if p.stallc == nil && !p.closed {
		p.stallc = make(chan struct{})
	}
	p.mu.Unlock()
}

func (p *ctrlProxy) heal() {
	p.mu.Lock()
	if p.stallc != nil {
		close(p.stallc)
		p.stallc = nil
	}
	p.mu.Unlock()
}

func (p *ctrlProxy) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	if p.stallc != nil {
		close(p.stallc)
		p.stallc = nil
	}
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}
