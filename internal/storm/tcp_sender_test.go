package storm

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// senderRig wires a bare tcpPeer over a real loopback connection, without
// a running worker: the tests below pin the peer's queue/writer contracts
// (FIFO, backpressure, peer-loss accounting) in isolation.
type senderRig struct {
	links  *peerLinks
	peer   *tcpPeer
	server net.Conn
	ln     net.Listener
}

func newSenderRig(t *testing.T, r *Runtime, sockBuf int) *senderRig {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		client.Close()
		ln.Close()
		t.Fatal(err)
	}
	if sockBuf > 0 {
		client.(*net.TCPConn).SetWriteBuffer(sockBuf)
		server.(*net.TCPConn).SetReadBuffer(sockBuf)
	}
	links := &peerLinks{r: r, self: 0, peers: make([]*tcpPeer, 2)}
	links.left.Add(1) // worker 1 has not left
	p := newTCPPeer(links, 1, client)
	links.peers[1] = p
	rig := &senderRig{links: links, peer: p, server: server, ln: ln}
	t.Cleanup(func() {
		p.dead.Store(true)
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
		client.Close()
		<-p.writerDone
		server.Close()
		ln.Close()
	})
	return rig
}

// record builds one fixed-size pseudo-frame carrying a sequence number, so
// the receiving side can verify exact arrival order and count without
// parsing real wire frames (the peer treats queued frames as opaque bytes).
func record(seq uint32, size int) []byte {
	b := make([]byte, size)
	binary.BigEndian.PutUint32(b, seq)
	return b
}

// sendRecord queues rec on p through the control-frame path.
func sendRecord(p *tcpPeer, rec []byte) error {
	return p.sendSmall(func(b []byte) []byte { return append(b[:0], rec...) })
}

// TestDistributedSenderFIFOUnderCoalescing interleaves the three enqueue
// entry points — batch frames (enqueue with a component), small control
// frames (sendSmall, like marker/done/ack frames), and heartbeats
// (trySendSmall) — and asserts the byte stream arrives in exact enqueue
// order: the writer coalesces whole queue takes into one writev but must
// never reorder across frame types.
func TestDistributedSenderFIFOUnderCoalescing(t *testing.T) {
	rig := newSenderRig(t, &Runtime{}, 0)
	const n = 300
	const size = 64

	comp := &runningComponent{spec: &componentSpec{id: "sink"}}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			rec := record(uint32(i), size)
			var err error
			switch i % 3 {
			case 0: // batch path: anchors snapshotted under the queue lock
				f := getFrameBuf()
				f.b = append(f.b[:0], rec...)
				if err = rig.peer.enqueue(f, comp, []envelope{{tuple: Tuple{}}}); err != nil {
					putFrameBuf(f)
				}
			case 1: // control path used by marker/done/ack frames
				err = sendRecord(rig.peer, rec)
			default: // heartbeat path, which never waits for queue space
				rig.peer.trySendSmall(func(b []byte) []byte { return append(b[:0], rec...) })
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	buf := make([]byte, n*size)
	if _, err := io.ReadFull(rig.server, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := binary.BigEndian.Uint32(buf[i*size:]); got != uint32(i) {
			t.Fatalf("frame %d carries seq %d: writer reordered the queue", i, got)
		}
	}
}

// TestDistributedSenderBackpressureBlocksWithoutDrops shrinks the peer
// queue bound and the socket buffers so the producer outruns both, and
// asserts the enqueue path blocks (rather than dropping or erroring) until
// the receiver drains — and that every frame then arrives exactly once, in
// order.
func TestDistributedSenderBackpressureBlocksWithoutDrops(t *testing.T) {
	oldBound := peerQueueBytes
	peerQueueBytes = 8 << 10
	defer func() { peerQueueBytes = oldBound }()

	rig := newSenderRig(t, &Runtime{}, 4<<10)
	const n = 200
	const size = 1024

	var sent atomic.Int32
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := sendRecord(rig.peer, record(uint32(i), size)); err != nil {
				done <- err
				return
			}
			sent.Add(1)
		}
		done <- nil
	}()

	// With the receiver idle, the producer must wedge against the queue
	// bound: total payload (200 KiB) far exceeds queue (8 KiB) + socket
	// buffers. Poll until progress stalls well short of completion.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := sent.Load()
		time.Sleep(50 * time.Millisecond)
		if sent.Load() == s {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("producer never stalled against the queue bound")
		}
	}
	if s := sent.Load(); int(s) >= n {
		t.Fatalf("producer finished %d/%d frames against an idle receiver: no backpressure", s, n)
	}

	buf := make([]byte, n*size)
	if _, err := io.ReadFull(rig.server, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s := sent.Load(); int(s) != n {
		t.Fatalf("producer sent %d/%d frames", s, n)
	}
	for i := 0; i < n; i++ {
		if got := binary.BigEndian.Uint32(buf[i*size:]); got != uint32(i) {
			t.Fatalf("frame %d carries seq %d: drop or reorder under backpressure", i, got)
		}
	}
}

// TestDistributedSenderPeerLossFailsQueuedAnchors wedges the writer on a
// tiny socket, queues anchored batch frames behind the wedge, then kills
// the peer: the queued-but-unsent frames must account exactly like a
// failed write — per-envelope drops on the destination component and a
// failed-anchor update per (root, edge) into the acker — and the dead peer
// must refuse further sends.
func TestDistributedSenderPeerLossFailsQueuedAnchors(t *testing.T) {
	r := &Runtime{cfg: config{peers: []string{"a", "b"}, selfWorker: 0}}
	// Not started: apply() resolves synchronously, and the hour-long
	// timeout keeps the sweeper out of the picture.
	r.acker = newXorAcker(r, time.Hour, 3)
	rig := newSenderRig(t, r, 4<<10)

	// Wedge the writer: one 192 KiB frame overflows both socket buffers, so
	// the writev blocks mid-take. (One frame, not several: a writer that
	// woke after the first of several would block on it with the rest
	// still queued, and the wait below would never end.) Wait until the
	// queue was swapped out (the writer owns the wedge frame) before
	// queueing the real payload.
	if err := sendRecord(rig.peer, record(0, 192<<10)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rig.peer.mu.Lock()
		empty := len(rig.peer.frames) == 0
		rig.peer.mu.Unlock()
		if empty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never took the wedge frame")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Two anchored envelopes on distinct self-owned roots (workerMask is 1,
	// so even root ids belong to worker 0), queued but unsendable.
	comp := &runningComponent{spec: &componentSpec{id: "sink"}}
	const rootA, edgeA = uint64(2), uint64(7)
	const rootB, edgeB = uint64(4), uint64(9)
	f := getFrameBuf()
	f.b = append(f.b[:0], record(99, 512)...)
	envs := []envelope{
		{tuple: Tuple{ack: rootA, edge: edgeA}},
		{tuple: Tuple{ack: rootB, edge: edgeB}},
	}
	if err := rig.peer.enqueue(f, comp, envs); err != nil {
		t.Fatal(err)
	}

	rig.links.peerLost(1, errors.New("injected"))
	<-rig.peer.writerDone

	if got := comp.dropped.Load(); got != 2 {
		t.Fatalf("component dropped %d envelopes, want 2", got)
	}
	for _, tc := range []struct{ root, edge uint64 }{{rootA, edgeA}, {rootB, edgeB}} {
		p, ok := r.acker.lookup(tc.root)
		if !ok {
			t.Fatalf("root %d: no acker entry — failed-anchor update never applied", tc.root)
		}
		failed, checksum := p.failed, p.checksum
		if !failed || checksum != tc.edge {
			t.Fatalf("root %d: failed=%v checksum=%d, want failed=true checksum=%d (the queued edge)",
				tc.root, failed, checksum, tc.edge)
		}
	}
	if err := sendRecord(rig.peer, record(0, 8)); err == nil {
		t.Fatal("dead peer accepted a send")
	}
}
