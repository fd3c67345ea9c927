package storm

// TCP peer links: worker membership over a static peer list, one
// directed connection per ordered worker pair (each worker dials every
// other and announces itself with a hello frame), heartbeat liveness, and
// the distributed halves of the end of stream (a marker frame with mark
// markEnd ending each edge, one done frame per worker as it leaves),
// anchored-tuple tracking (ackBatch frames carrying checksum updates to
// each root's owner), and the epoch protocol (marker frames carrying
// barriers between executors, one-way epoch frames between the coordinator
// and the workers).
//
// Per-sender FIFO comes straight from TCP: everything a worker sends to a
// given peer — batches, markers, epoch messages, done — shares one
// connection and is delivered in order by a single reader goroutine, the
// only one that delivers that peer's frames. That ordering is what makes
// an end marker prove its sender's batches are ahead of it without any
// cross-worker locking, and what applies one sender's epoch messages in
// send order. A reader holds the edges from its peer's executors to this
// worker's that have not ended, rejects a marker on any other, and when it
// stops ends the ones still open behind the last frame it delivered, so
// nothing from a lost peer arrives after its ends.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// frameBuf is a pooled encode buffer: senders build one complete frame
// into it off the peer lock and hand it to the peer's queue; the writer
// goroutine returns it to the pool after the coalesced write. Oversized
// backing arrays (a one-off jumbo frame) are dropped at release so the
// pool never pins the largest frame ever sent.
type frameBuf struct{ b []byte }

// maxScratchBytes caps retained scratch buffers on both sides of the wire:
// pooled frame encode buffers and the reader's payload buffer shrink back
// to (at most) this after servicing a larger frame.
const maxScratchBytes = 64 << 10

var frameBufPool = sync.Pool{New: func() any { return new(frameBuf) }}

func getFrameBuf() *frameBuf { return frameBufPool.Get().(*frameBuf) }

func putFrameBuf(f *frameBuf) {
	if cap(f.b) > maxScratchBytes {
		f.b = nil // retention cap: drop jumbo backing arrays, keep the box
	}
	frameBufPool.Put(f)
}

// qFrame is one queued outbound frame. Batch frames carry their accounting
// context — destination component, envelope count and a window into the
// peer's anchors queue — so peer loss can fail queued-but-unsent frames
// exactly like a failed write (transport.go's dropBatch contract). Small
// frames (comp nil) carry none.
type qFrame struct {
	buf        *frameBuf
	comp       *runningComponent
	n          int // envelopes, for the dropped counter
	aoff, alen int32
}

// anchorRef is one anchored envelope's (root, edge) pair, snapshotted at
// enqueue time so a failed frame can fail its trees after the originating
// batch was long recycled.
type anchorRef struct{ ack, edge uint64 }

// peerQueueBytes bounds each peer's outbound queue (frame payload bytes).
// Enqueueing past it blocks — the same backpressure a send would get from
// a full kernel send buffer, one queue earlier. A var so tests
// can shrink the bound to force the blocking path.
var peerQueueBytes = 1 << 20

// peerCtrlHeadroom is the band reserved above peerQueueBytes for
// trySendSmall: every other enqueue (data, marker, done, ack and epoch frames)
// blocks at the bound, so heartbeats always find room even when the peer
// is saturated with data — see trySendSmall.
const peerCtrlHeadroom = 8 << 10

// shutdownFlushTimeout bounds how long Close waits for a peer's writer to
// flush its queue (done frames, final acks) before the connection is torn down.
const shutdownFlushTimeout = 2 * time.Second

// tcpPeer is the outbound link to one worker.
//
// Sends are pipelined: callers encode frames off-lock into pooled buffers
// and append them to a bounded queue; a dedicated writer goroutine drains
// the whole queue per wakeup into one writev (net.Buffers), so executors
// never block on the kernel inside a send and small frames stop costing a
// syscall each. FIFO across all frame types is preserved — the
// queue is strictly ordered and there is exactly one writer.
type tcpPeer struct {
	id   int
	l    *peerLinks
	conn net.Conn
	dead atomic.Bool

	mu      sync.Mutex
	cond    *sync.Cond // writer wakeup + queue-space waits
	frames  []qFrame
	anchors []anchorRef
	qBytes  int
	closing bool
	// in is the peer's inbound connection once a reader serves it (from its
	// hello on; guarded by mu). left is set once the peer sent done or was
	// declared lost.
	in   net.Conn
	left atomic.Bool

	writerDone chan struct{}
}

// newTCPPeer wraps an established outbound connection (hello already
// written) and starts its writer goroutine.
func newTCPPeer(l *peerLinks, id int, conn net.Conn) *tcpPeer {
	p := &tcpPeer{id: id, l: l, conn: conn, writerDone: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	l.wg.Add(1)
	go p.writeLoop()
	return p
}

func (p *tcpPeer) down() error { return fmt.Errorf("storm: peer %d is down", p.id) }

// enqueue appends one encoded frame to the outbound queue, blocking while
// the queue is over its byte bound (backpressure; zero drops). For batch
// frames (comp non-nil) the envelopes' anchors are snapshotted under the
// same lock so a later failure can fail their trees. On error the caller
// keeps ownership of f.
func (p *tcpPeer) enqueue(f *frameBuf, comp *runningComponent, envs []envelope) error {
	p.mu.Lock()
	for p.qBytes >= peerQueueBytes && !p.closing && !p.dead.Load() {
		p.cond.Wait()
	}
	if p.closing || p.dead.Load() {
		p.mu.Unlock()
		return p.down()
	}
	qf := qFrame{buf: f}
	if comp != nil {
		qf.comp = comp
		qf.n = len(envs)
		qf.aoff = int32(len(p.anchors))
		for i := range envs {
			if a := envs[i].tuple.ack; a != 0 {
				p.anchors = append(p.anchors, anchorRef{ack: a, edge: envs[i].tuple.edge})
				qf.alen++
			}
		}
	}
	p.frames = append(p.frames, qf)
	p.qBytes += len(f.b)
	if len(p.frames) == 1 {
		p.cond.Broadcast() // queue went non-empty: wake the writer
	}
	p.mu.Unlock()
	return nil
}

// writeLoop is the peer's dedicated writer: it swaps the whole queue out
// under the lock and writes every queued frame in one writev. It exits only
// while holding the lock with an empty queue (after closing or death), so
// an enqueue that succeeded is guaranteed to be either written or failed —
// never stranded.
func (p *tcpPeer) writeLoop() {
	defer p.l.wg.Done()
	defer close(p.writerDone)
	var bufs net.Buffers
	var spare []qFrame
	var spareAnchors []anchorRef
	for {
		p.mu.Lock()
		for len(p.frames) == 0 && !p.closing && !p.dead.Load() {
			p.cond.Wait()
		}
		if len(p.frames) == 0 {
			p.mu.Unlock()
			return
		}
		frames, anchors := p.frames, p.anchors
		p.frames, p.anchors = spare[:0], spareAnchors[:0]
		p.qBytes = 0
		p.cond.Broadcast() // queue space freed: wake blocked enqueuers
		dead := p.dead.Load()
		p.mu.Unlock()

		if dead {
			p.l.failFrames(frames, anchors, p.down())
		} else {
			bufs = bufs[:0]
			for i := range frames {
				bufs = append(bufs, frames[i].buf.b)
			}
			if _, err := bufs.WriteTo(p.conn); err != nil {
				// Fail the whole take: a writev error loses the tail and may
				// duplicate an already-written prefix on replay — at-least-once,
				// exactly like a partial conn.Write before.
				p.l.peerLost(p.id, err)
				p.l.failFrames(frames, anchors, err)
			}
		}
		for i := range frames {
			putFrameBuf(frames[i].buf)
			frames[i] = qFrame{}
		}
		spare, spareAnchors = frames, anchors
	}
}

// sendSmall builds a frame into a pooled buffer off the peer lock and
// queues it, for the fixed-size frames (markers, done, acks and epoch
// messages). The frame coalesces into the writer's next writev instead of
// costing its own syscall.
func (p *tcpPeer) sendSmall(build func([]byte) []byte) error {
	if p.dead.Load() {
		return p.down()
	}
	f := getFrameBuf()
	f.b = build(f.b)
	if err := p.enqueue(f, nil, nil); err != nil {
		putFrameBuf(f)
		return err
	}
	return nil
}

// trySendSmall is sendSmall minus the backpressure wait, for heartbeats.
// Heartbeats get a reserved headroom band above the data bound: every
// other enqueue blocks at peerQueueBytes, so the band is always available,
// and a peer saturated with data for 4+ heartbeat intervals keeps proving
// its liveness instead of silently skipping every beat until the remote's
// read deadline declares it dead. Only a queue overfull into the band
// itself (heartbeats piled up behind a stuck writer — the peer really is
// gone) drops the frame.
func (p *tcpPeer) trySendSmall(build func([]byte) []byte) {
	if p.dead.Load() {
		return
	}
	p.mu.Lock()
	if p.qBytes >= peerQueueBytes+peerCtrlHeadroom || p.closing || p.dead.Load() {
		p.mu.Unlock()
		return
	}
	f := getFrameBuf()
	f.b = build(f.b)
	p.frames = append(p.frames, qFrame{buf: f})
	p.qBytes += len(f.b)
	if len(p.frames) == 1 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// beginShutdown starts a graceful drain: no new frames are accepted and
// the writer exits once the queue is flushed. The write deadline bounds
// the flush against a peer that stopped reading.
func (p *tcpPeer) beginShutdown() {
	p.mu.Lock()
	p.closing = true
	p.cond.Broadcast()
	p.mu.Unlock()
	if p.conn != nil {
		p.conn.SetWriteDeadline(time.Now().Add(shutdownFlushTimeout))
	}
}

// finishShutdown waits for the writer to drain and closes the connection.
func (p *tcpPeer) finishShutdown() {
	if p.writerDone != nil {
		<-p.writerDone
	}
	if p.conn != nil {
		p.conn.Close()
	}
}

// failFrames accounts for queued frames a peer took to its grave, exactly
// like dropBatch accounts a batch a send error already lost: per-envelope
// dropped counts on the destination component, failed anchors so the
// acker replays or expires the trees, and the run error under FailFast.
func (l *peerLinks) failFrames(frames []qFrame, anchors []anchorRef, cause error) {
	for i := range frames {
		f := &frames[i]
		if f.comp == nil {
			continue // small frame: nothing to account
		}
		f.comp.dropped.Add(uint64(f.n))
		for _, a := range anchors[f.aoff : f.aoff+int32(f.alen)] {
			if l.r.acker != nil {
				l.r.acker.apply(a.ack, a.edge, true)
			}
		}
		if l.r.policy != Degrade {
			l.r.recordErr(fmt.Errorf("storm: dropping %d tuples for %s: %w", f.n, f.comp.spec.id, cause))
		}
	}
}

// peerLinks are one worker's connections to the other workers of a
// distributed run: an outbound tcpPeer per peer and an inbound reader per
// accepted connection.
type peerLinks struct {
	r     *Runtime
	self  int
	hb    time.Duration
	ln    net.Listener
	peers []*tcpPeer // by worker id; nil at self
	// left counts the peers that have neither sent done nor been declared
	// lost; leave waits for it.
	left sync.WaitGroup

	// ready is closed once the peers slice is fully built; inbound readers
	// park on it before dispatching their first frame, so early-connecting
	// peers never observe a half-constructed membership.
	ready  chan struct{}
	stopCh chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
}

// newPeerLinks brings up this worker's data plane: listen, dial every
// peer, exchange hellos, and start the heartbeat. It returns only once all
// outbound links are up, so executors never observe a half-connected
// membership.
func newPeerLinks(r *Runtime) (*peerLinks, error) {
	l := &peerLinks{
		r: r, self: r.cfg.selfWorker, hb: r.cfg.heartbeat,
		peers:  make([]*tcpPeer, len(r.cfg.peers)),
		ready:  make(chan struct{}),
		stopCh: make(chan struct{}),
	}
	l.left.Add(len(r.cfg.peers) - 1)
	if r.acker != nil {
		r.acker.sendRemote = l.sendAckBatch
	}
	ln := r.cfg.listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", r.cfg.peers[l.self]); err != nil {
			return nil, fmt.Errorf("storm: worker %d listen: %w", l.self, err)
		}
	}
	l.ln = ln
	l.wg.Add(1)
	go l.acceptLoop()

	deadline := time.Now().Add(r.cfg.dialTimeout)
	for w, addr := range r.cfg.peers {
		if w == l.self {
			continue
		}
		conn, err := l.dial(addr, deadline)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("storm: worker %d dialing worker %d (%s): %w", l.self, w, addr, err)
		}
		// The socket keeps Go's defaults: TCP_NODELAY on (the per-peer writer
		// already coalesces frames, so Nagle would only add latency) and
		// OS-sized kernel buffers.
		f := getFrameBuf()
		f.b = appendHelloFrame(f.b[:0], l.self)
		_, err = conn.Write(f.b) // synchronous: the hello must precede every queued frame
		putFrameBuf(f)
		if err != nil {
			conn.Close()
			l.Close()
			return nil, fmt.Errorf("storm: worker %d hello to worker %d: %w", l.self, w, err)
		}
		l.peers[w] = newTCPPeer(l, w, conn)
	}
	close(l.ready)
	l.wg.Add(1)
	go l.heartbeatLoop()
	return l, nil
}

func (l *peerLinks) dial(addr string, deadline time.Time) (net.Conn, error) {
	for {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		select {
		case <-l.stopCh:
			return nil, err
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// send encodes b for dest, an executor placed on another worker, and
// queues the frame on that worker's link. On error the batch is still the
// caller's, so deliverOrDrop's dropBatch accounting stays correct; once
// queued, peer loss fails the frame with the same accounting via
// failFrames.
func (l *peerLinks) send(dest *executor, b *batch) error {
	p := l.peers[dest.worker]
	if p == nil || p.dead.Load() {
		return fmt.Errorf("storm: worker %d is down", dest.worker)
	}
	// Encode off the peer lock into a pooled buffer, then queue the frame
	// for the writer.
	f := getFrameBuf()
	buf, err := appendBatchFrame(f.b[:0], dest.eid, b.envs)
	if err != nil {
		putFrameBuf(f)
		return err
	}
	f.b = buf
	if err := p.enqueue(f, dest.comp, b.envs); err != nil {
		putFrameBuf(f)
		return err
	}
	dest.comp.wireIn.Add(uint64(len(b.envs)))
	// The frame owns copies of everything; release the pooled batch here,
	// playing the receiving executor's role in the ownership contract.
	l.r.putBatch(b)
	return nil
}

// Close shuts the links down; idempotent. Peer writers drain their queues
// first (bounded by shutdownFlushTimeout) so done frames and final acks
// reach the wire, then the connections close.
func (l *peerLinks) Close() {
	if l.closed.Swap(true) {
		return
	}
	close(l.stopCh)
	if l.ln != nil {
		l.ln.Close()
	}
	for _, p := range l.peers {
		if p != nil {
			p.beginShutdown()
		}
	}
	for _, p := range l.peers {
		if p != nil {
			p.finishShutdown()
		}
	}
	l.wg.Wait()
}

func (l *peerLinks) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.wg.Add(1)
		go l.readLoop(conn)
	}
}

// heartbeatLoop keeps every outbound link warm so idle peers do not trip
// each other's read deadlines. Dead links are detected by the peer's
// writer goroutine (any write failure calls peerLost), so the heartbeat
// only needs to queue frames — and skips peers whose queue is already
// backed up with data frames, which prove liveness on their own.
func (l *peerLinks) heartbeatLoop() {
	defer l.wg.Done()
	tick := time.NewTicker(l.hb)
	defer tick.Stop()
	for {
		select {
		case <-l.stopCh:
			return
		case <-tick.C:
			for _, p := range l.peers {
				if p == nil || p.dead.Load() {
					continue
				}
				p.trySendSmall(appendHeartbeatFrame)
			}
		}
	}
}

// readLoop serves one inbound connection. The first frame must be the
// hello of a peer no reader served before and not declared lost; every
// later frame is dispatched in order, and this reader is the only goroutine
// that delivers the peer's frames. When it stops, it declares the peer lost
// unless the peer sent done first, then ends the peer's edges still open,
// behind the last frame it delivered. Liveness: one 4-heartbeat
// deadline is armed per frame (covering both the header and payload reads),
// so a genuinely silent peer is detected while a reader merely blocked
// delivering into a full executor queue (backpressure) is not — the
// deadline only covers the socket wait.
func (l *peerLinks) readLoop(conn net.Conn) {
	defer l.wg.Done()
	defer conn.Close()
	select {
	case <-l.ready: // membership built; safe to dispatch
	case <-l.stopCh:
		return
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	var header [frameHeaderLen]byte
	var payload []byte
	var in *inbound
	var err error
	for {
		// The deadline guards the socket wait only: when the next frame is
		// already sitting in the buffered reader, skip the re-arm (a
		// time.Now + poller update per frame on the hot path).
		if br.Buffered() < frameHeaderLen {
			conn.SetReadDeadline(time.Now().Add(4 * l.hb))
		}
		if _, err = io.ReadFull(br, header[:]); err != nil {
			break
		}
		n := binary.BigEndian.Uint32(header[:])
		if n == 0 || n > maxFramePayload {
			err = fmt.Errorf("storm: bad frame length %d", n)
			break
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if br.Buffered() < int(n) {
			conn.SetReadDeadline(time.Now().Add(4 * l.hb))
		}
		if _, err = io.ReadFull(br, payload); err != nil {
			break
		}
		typ, body := payload[0], payload[1:]
		if in == nil {
			if in = l.serve(typ, body, conn); in == nil {
				return // not a peer of ours, or one already served or lost
			}
			continue
		}
		err = in.dispatch(typ, body)
		if cap(payload) > maxScratchBytes {
			payload = nil // retention cap: a jumbo frame's buffer is not pinned
		}
		if err != nil {
			break
		}
	}
	if in == nil || l.closed.Load() {
		return
	}
	if !l.peers[in.peer].left.Load() {
		l.peerLost(in.peer, err)
	}
	l.endStreams(in.open)
}

// serve takes the first frame of an inbound connection, which must be a
// peer's hello, and registers conn as that peer's inbound connection. It
// returns nil for anything else, for a peer a reader already served, and
// for one declared lost.
func (l *peerLinks) serve(typ byte, body []byte, conn net.Conn) *inbound {
	w, _, err := decodeUvarint(body)
	if typ != frameHello || err != nil || w >= uint64(len(l.peers)) || int(w) == l.self {
		return nil
	}
	p := l.peers[w]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.in != nil || p.dead.Load() {
		return nil
	}
	p.in = conn
	return &inbound{l: l, peer: int(w), dec: frameDecoder{r: l.r}, open: l.openEdges(int(w))}
}

// inbound is the state of one served connection's reader.
type inbound struct {
	l    *peerLinks
	peer int
	dec  frameDecoder
	// open holds the edges from the peer's executors to this worker's that
	// have not ended.
	open map[edge]bool
	// acks and rb are ackBatch's reused decode buffer and resolution
	// scratch.
	acks []ackUpdate
	rb   resolveBatch
}

// edge is one executor's output to one executor it feeds, by dense ids.
type edge struct{ src, dest int }

func (in *inbound) dispatch(typ byte, body []byte) error {
	l := in.l
	switch typ {
	case frameHeartbeat, frameHello: // a redundant hello is ignored
		return nil
	case frameBatch:
		destEID, b, err := in.dec.decodeBatchFrame(body)
		if err != nil {
			return err
		}
		ex, err := l.inboundBolt(destEID, b.envs)
		if err != nil {
			l.r.putBatch(b)
			return err
		}
		ex.deliver(b)
		return nil
	case frameMarker:
		return in.marker(body)
	case frameDone:
		if len(body) != 0 {
			return fmt.Errorf("storm: done frame with a %d-byte body", len(body))
		}
		l.peerLeft(l.peers[in.peer]) // its connection closing is now a clean exit
		return nil
	case frameAckBatch:
		if l.r.acker == nil {
			return fmt.Errorf("storm: ackBatch frame at worker %d, which runs without the XOR acker", l.self)
		}
		return in.ackBatch(body)
	case frameEpoch:
		m, err := decodeEpochFrame(body)
		if err != nil {
			return err
		}
		if l.r.epochs == nil {
			return fmt.Errorf("storm: epoch frame at worker %d, which runs without epoch mode", l.self)
		}
		return l.r.epochs.apply(m)
	}
	return fmt.Errorf("storm: unknown frame type %d", typ)
}

// ackBatch applies one ackBatch frame. The whole frame is decoded and
// checked before any update lands, so a malformed frame fails the link
// with none of its updates applied. A sender's ackBatcher ships a root's
// updates only to the root's owner, so a root this worker does not own
// makes the frame malformed too.
func (in *inbound) ackBatch(body []byte) error {
	l := in.l
	count, b, err := decodeUvarint(body)
	if err != nil {
		return err
	}
	ents := in.acks[:0]
	for i := uint64(0); i < count; i++ {
		var root uint64
		if root, b, err = decodeUvarint(b); err != nil {
			return err
		}
		if len(b) < 9 {
			return errShortFrame
		}
		if w := l.r.acker.owner(root); w != l.self {
			return fmt.Errorf("storm: ackBatch frame at worker %d for root %d, which worker %d owns", l.self, root, w)
		}
		ents = append(ents, ackUpdate{root: root, xor: binary.BigEndian.Uint64(b), fail: b[8] != 0})
		b = b[9:]
	}
	if len(b) != 0 {
		return fmt.Errorf("storm: %d trailing bytes after ackBatch frame", len(b))
	}
	in.acks = ents
	l.r.acker.applyLocal(ents, &in.rb)
	return nil
}

// marker delivers one marker frame: the mark of one of the peer's
// executors on an open edge to an executor of this worker. A marker ending
// the edge closes it.
func (in *inbound) marker(body []byte) error {
	l := in.l
	dest, src, mark, err := decodeMarkerFrame(body)
	if err != nil {
		return err
	}
	ex, err := l.inboundBolt(dest, nil)
	if err != nil {
		return err
	}
	if mark != markEnd && l.r.epochs == nil {
		return fmt.Errorf("storm: marker for epoch %d at worker %d, which runs without epoch mode", mark, l.self)
	}
	e := edge{src, dest}
	if !in.open[e] {
		return fmt.Errorf("storm: marker from executor %d to executor %d, which is not an open edge from worker %d", src, dest, in.peer)
	}
	if mark == markEnd {
		delete(in.open, e)
	}
	// Deliver on the reader, like data frames: the marker slots into the
	// executor's queue behind every earlier delivery from this connection,
	// the FIFO property alignment and the end of stream rely on.
	ex.in <- l.r.marker(src, mark)
	return nil
}

// inboundBolt checks the executor a peer's batch or marker frame names,
// and the envelopes of a batch, against the placement and the options.
// Only a bolt executor placed on this worker may be addressed — a spout's
// input queue has no reader, and another worker's executor does not run
// here — and only tasks that executor has. An anchored envelope needs the
// XOR acker here: root ids are global, so with it running every worker
// routes checksum updates to the owner directly and anchored envelopes pass
// through untranslated. Anything else is a malformed frame.
func (l *peerLinks) inboundBolt(eid int, envs []envelope) (*executor, error) {
	if eid < 0 || eid >= len(l.r.execs) {
		return nil, fmt.Errorf("storm: frame for unknown executor %d", eid)
	}
	ex := l.r.execs[eid]
	if ex.worker != l.self || ex.comp.spec.isSpout {
		return nil, fmt.Errorf("storm: frame for executor %d, which is not a bolt executor of worker %d", eid, l.self)
	}
	for i := range envs {
		if uint(envs[i].local) >= uint(len(ex.tasks)) {
			return nil, fmt.Errorf("storm: frame for task %d of executor %d, which has %d", envs[i].local, eid, len(ex.tasks))
		}
		if envs[i].tuple.ack != 0 && l.r.acker == nil {
			return nil, fmt.Errorf("storm: anchored envelope for executor %d at worker %d, which runs without the XOR acker", eid, l.self)
		}
	}
	return ex, nil
}

// sendAckBatch ships a coalesced batch of XOR checksum updates to the
// worker owning their roots; best-effort (a dead peer's roots replay or
// expire on their own timeouts).
func (l *peerLinks) sendAckBatch(worker int, ents []ackUpdate) {
	if worker < 0 || worker >= len(l.peers) || len(ents) == 0 {
		return
	}
	if p := l.peers[worker]; p != nil {
		p.sendSmall(func(buf []byte) []byte { return appendAckBatchFrame(buf, ents) })
	}
}

// leave runs once the last local executor exited: it sends done to every
// peer, behind the executors' final markers, and waits until every peer
// sent done or was declared lost. Workers leave together, so a peer that
// finishes later never dials a closed listener or writes its final markers
// into a closed socket.
func (l *peerLinks) leave() {
	for _, p := range l.peers {
		if p != nil {
			p.sendSmall(appendDoneFrame)
		}
	}
	l.left.Wait()
}

// peerLeft marks a worker gone from the run: it sent done or was declared
// lost.
func (l *peerLinks) peerLeft(p *tcpPeer) {
	if !p.left.Swap(true) {
		l.left.Done()
	}
}

// peerLost declares a worker dead: frames queued for it fail, the loss is
// the run error under FailFast, and its streams end. When a reader served
// the worker, closing its inbound connection stops that reader, which ends
// the streams behind the last frame it delivered; only when none ever did
// does peerLost end them itself.
func (l *peerLinks) peerLost(worker int, cause error) {
	p := l.peers[worker]
	if p == nil || p.dead.Swap(true) {
		return
	}
	p.conn.Close()
	if l.r.policy != Degrade {
		l.r.recordErr(fmt.Errorf("storm: worker %d: lost worker %d: %w", l.self, worker, cause))
	}
	p.mu.Lock()
	in := p.in
	p.cond.Broadcast() // an enqueue waiting for queue space fails now
	p.mu.Unlock()
	if in != nil {
		in.Close()
	} else {
		l.endStreams(l.openEdges(worker))
	}
	l.peerLeft(p)
}

// openEdges lists the edges from worker w's executors to this worker's.
func (l *peerLinks) openEdges(w int) map[edge]bool {
	open := make(map[edge]bool)
	for _, src := range l.r.execs {
		if src.worker != w {
			continue
		}
		for _, dest := range src.comp.down {
			if dest.worker == l.self {
				open[edge{src.eid, dest.eid}] = true
			}
		}
	}
	return open
}

// endStreams ends each of a peer's open edges until the links close: every
// local executor has exited then, or never started.
func (l *peerLinks) endStreams(open map[edge]bool) {
	for e := range open {
		select {
		case l.r.execs[e.dest].in <- l.r.marker(e.src, markEnd):
		case <-l.stopCh:
			return
		}
	}
}
