// Package am implements Active Messages, the lean communication layer
// at the heart of the NOW prototype (von Eicken et al., and Martin's
// HPAM port to HP workstations over Medusa FDDI).
//
// The design follows the paper's definitions exactly: *overhead* is CPU
// time spent by the processor preparing to send or receive (charged to
// the node's CPU, where it contends with everything else running there),
// while *latency* and serialization live in the fabric. An active
// message names a handler on the destination; the handler runs when the
// receiving endpoint's dispatcher drains it and may return a reply,
// which doubles as the acknowledgement.
//
// Reliability is the paper's "message loss as an infrequent case":
// per-destination sequence numbers, sender-side timeout and retry, and
// receiver-side duplicate suppression with cached replies, so a retried
// non-idempotent request is answered from the cache instead of
// re-executed. Receive buffering is finite; arrivals beyond the buffer
// are dropped and recovered by retry — the exact failure mode that makes
// the Column benchmark collapse without coscheduling (Figure 4).
package am

import (
	"errors"
	"fmt"
	"sort"

	"github.com/nowproject/now/internal/netsim"
	"github.com/nowproject/now/internal/node"
	"github.com/nowproject/now/internal/sim"
)

// HandlerID names a registered handler on an endpoint.
type HandlerID int

// Msg is what a handler receives.
type Msg struct {
	// Src is the requesting node.
	Src netsim.NodeID
	// Arg is the request argument (simulated payload, by reference).
	Arg any
	// Bytes is the payload size carried on the wire.
	Bytes int
}

// Handler processes a request and returns the reply value and its
// payload size in bytes (0 for a bare acknowledgement). Handlers run in
// the endpoint's dispatcher process and may perform further blocking
// simulation operations (disk I/O, nested calls on *other* endpoints).
type Handler func(p *sim.Proc, m Msg) (reply any, replyBytes int)

// ErrTimeout is returned when a message exhausted its retries without an
// acknowledgement (destination crashed or detached).
var ErrTimeout = errors.New("am: request timed out")

// Config sets the endpoint's cost and reliability parameters.
type Config struct {
	// SendOverhead is the CPU time charged at the sender per message.
	SendOverhead sim.Duration
	// RecvOverhead is the CPU time charged at the receiver per message.
	RecvOverhead sim.Duration
	// SendPerByte and RecvPerByte charge copy costs proportional to the
	// payload — zero for true user-level Active Messages (data moves by
	// DMA from user buffers), nonzero for the kernel-stack baselines
	// (package kstack) built on this same endpoint machinery, where
	// every byte crosses the kernel once or twice.
	SendPerByte sim.Duration
	RecvPerByte sim.Duration
	// HeaderBytes is added to every packet on the wire.
	HeaderBytes int
	// BufferSlots bounds the receive queue; excess arrivals are dropped.
	BufferSlots int
	// RetryTimeout is how long a sender waits before retransmitting.
	RetryTimeout sim.Duration
	// MaxRetries bounds retransmissions before ErrTimeout.
	MaxRetries int
	// CompletionTimeout bounds how long an acknowledged request may wait
	// for its reply. Retransmission stops once the destination's
	// transport ack arrives (the handler may legitimately take a long
	// time — a disk read, a rebuild); if the reply still has not arrived
	// after this deadline the destination is presumed to have crashed
	// mid-request. Zero means 10 s of virtual time.
	CompletionTimeout sim.Duration
	// Window bounds outstanding asynchronous sends per destination.
	Window int
	// Class is the CPU scheduling class charged for protocol processing
	// ("" = system class, always schedulable).
	Class string
	// Port is the endpoint's address on its node; distinct subsystems or
	// jobs sharing a node use distinct ports. Port 0 is the default.
	Port int
}

// DefaultConfig is the NOW target: user-level network access with a
// handful of microseconds of overhead per side, aiming at the paper's
// 10 µs user-to-user goal on a Myrinet-class fabric.
func DefaultConfig() Config {
	return Config{
		SendOverhead: 3 * sim.Microsecond,
		RecvOverhead: 3 * sim.Microsecond,
		HeaderBytes:  32,
		BufferSlots:  64,
		RetryTimeout: 1 * sim.Millisecond,
		MaxRetries:   10,
		Window:       16,
	}
}

// HPAMConfig reproduces Martin's HPAM prototype on Medusa FDDI: 8 µs of
// processor overhead per side including timeout and retry support.
func HPAMConfig() Config {
	cfg := DefaultConfig()
	cfg.SendOverhead = 8 * sim.Microsecond
	cfg.RecvOverhead = 8 * sim.Microsecond
	return cfg
}

// CM5Config reproduces the CM-5 figures the paper cites: roughly 50
// cycles ≈ 1.7 µs of overhead for sending and handling a small message.
func CM5Config() Config {
	cfg := DefaultConfig()
	cfg.SendOverhead = 1700 * sim.Nanosecond
	cfg.RecvOverhead = 1700 * sim.Nanosecond
	return cfg
}

type pktKind uint8

const (
	kindRequest pktKind = iota + 1
	kindReply
)

// wire is the fabric payload for an AM request or reply. Both are
// immutable once sent: a retransmission resends the request's wire and
// a duplicate request is answered with the cached reply's wire.
type wire struct {
	kind    pktKind
	seq     uint64
	handler HandlerID
	arg     any
	bytes   int
	// ackedBelow lets the receiver prune its duplicate-suppression
	// cache: the sender has seen acknowledgements for all seq < this.
	ackedBelow uint64
}

// ackOf is the payload of a transport-level receipt, which stops the
// sender's retransmission timer without completing the call. It is the
// acknowledged request's own wire under a distinct type, so an ack
// carries the request's seq without allocating.
type ackOf wire

// pending is one outstanding send. The request's wire and packet live
// inside it, so posting a request allocates once.
type pending struct {
	w        wire
	pkt      netsim.Packet
	seq      uint64
	dst      netsim.NodeID
	retries  int
	timer    sim.Timer
	done     *sim.Signal // nil for asynchronous sends
	reply    any
	failed   bool
	finished bool
	acked    bool
	async    bool
}

// Stats counts endpoint activity.
type Stats struct {
	Sent       int64 // requests transmitted (excluding retries)
	Retries    int64
	Replies    int64 // replies transmitted
	Handled    int64 // handler executions (deduplicated)
	Duplicates int64 // suppressed duplicate requests
	Overflows  int64 // arrivals dropped for lack of buffer slots
	Failures   int64 // sends abandoned after MaxRetries
}

// Endpoint is one node's attachment to the Active Message layer.
type Endpoint struct {
	cfg      Config
	eng      *sim.Engine
	node     *node.Node
	fab      *netsim.Fabric
	id       netsim.NodeID
	handlers map[HandlerID]handlerEntry

	tx *sim.Mailbox[*netsim.Packet]
	rq *sim.Mailbox[*netsim.Packet]

	lowestUnack map[netsim.NodeID]uint64
	pend        map[uint64]*pending // keyed by seq (seqs are endpoint-global)
	// outstanding counts asynchronous sends only: synchronous Calls are
	// bounded by their callers blocking, and including them in the
	// window would deadlock a handler that Flushes while its own
	// request's reply is pending.
	outstanding map[netsim.NodeID]int
	windowSig   *sim.Signal

	// seen caches processed request seqs per source with their replies,
	// pruned by the cumulative ackedBelow the source advertises.
	seen map[netsim.NodeID]*dedupCache

	// runs recycles handler launches; onTimeoutFn is ep.onTimeout bound
	// once, so arming a retransmission timer allocates no closure.
	runs        []*handlerRun
	onTimeoutFn func(any)

	stats    Stats
	detached bool
	seq      uint64
}

// handlerEntry is a registered handler with the name its worker
// processes carry, built once at registration.
type handlerEntry struct {
	fn   Handler
	name string
}

// dedupCache is one source's duplicate-suppression cache. A nil reply
// marks a request whose handler is still executing in a worker process;
// duplicates arriving meanwhile are dropped (the sender's retry will
// find the cached reply once it lands).
type dedupCache struct {
	replies map[uint64]*wire
	// low is a floor under every cached seq: a request whose ackedBelow
	// does not pass it has nothing to prune, so the map is scanned only
	// when the source's acknowledgements move past the floor.
	low uint64
}

// put caches seq's reply (nil while its handler runs).
func (c *dedupCache) put(seq uint64, reply *wire) {
	c.replies[seq] = reply
	if seq < c.low {
		c.low = seq
	}
}

// prune drops every cached seq below ackedBelow.
func (c *dedupCache) prune(ackedBelow uint64) {
	if ackedBelow <= c.low {
		return
	}
	for seq := range c.replies {
		if seq < ackedBelow {
			delete(c.replies, seq)
		}
	}
	c.low = ackedBelow
}

// NewEndpoint attaches node n to the fabric with the given config and
// starts its transmit and dispatch processes.
func NewEndpoint(e *sim.Engine, n *node.Node, fab *netsim.Fabric, cfg Config) *Endpoint {
	if cfg.BufferSlots <= 0 {
		cfg.BufferSlots = 64
	}
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = sim.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 10
	}
	if cfg.CompletionTimeout <= 0 {
		cfg.CompletionTimeout = 10 * sim.Second
	}
	ep := &Endpoint{
		cfg:         cfg,
		eng:         e,
		node:        n,
		fab:         fab,
		id:          n.ID(),
		handlers:    make(map[HandlerID]handlerEntry),
		tx:          sim.NewMailbox[*netsim.Packet](e, fmt.Sprintf("am%d/tx", n.ID())),
		rq:          sim.NewMailbox[*netsim.Packet](e, fmt.Sprintf("am%d/rq", n.ID())),
		lowestUnack: make(map[netsim.NodeID]uint64),
		pend:        make(map[uint64]*pending),
		outstanding: make(map[netsim.NodeID]int),
		windowSig:   sim.NewSignal(e, fmt.Sprintf("am%d/window", n.ID())),
		seen:        make(map[netsim.NodeID]*dedupCache),
	}
	ep.onTimeoutFn = ep.onTimeout
	fab.SetDeliveryPort(ep.id, cfg.Port, ep.deliver)
	e.Spawn(fmt.Sprintf("am%d/txproc", n.ID()), ep.txLoop)
	e.Spawn(fmt.Sprintf("am%d/dispatch", n.ID()), ep.dispatch)
	return ep
}

// NewFleet builds a workstation and its endpoint for every node fab
// attaches, indexed by node id; on a partition fabric the other
// partitions' nodes are nil. A nil nodeCfg means node.DefaultConfig.
// It is the one place a fleet is built: node i's CPU, then its AM
// loops, in ascending node order fix process ids and same-instant
// event order.
func NewFleet(fab *netsim.Fabric, cfg Config, nodeCfg func(netsim.NodeID) node.Config) []*Endpoint {
	if nodeCfg == nil {
		nodeCfg = node.DefaultConfig
	}
	e := fab.Engine()
	eps := make([]*Endpoint, fab.Nodes())
	for i := range eps {
		if id := netsim.NodeID(i); fab.Local(id) {
			eps[i] = NewEndpoint(e, node.New(e, nodeCfg(id)), fab, cfg)
		}
	}
	return eps
}

// Node returns the endpoint's host.
func (ep *Endpoint) Node() *node.Node { return ep.node }

// ID returns the endpoint's fabric address.
func (ep *Endpoint) ID() netsim.NodeID { return ep.id }

// Config returns the endpoint's configuration.
func (ep *Endpoint) Config() Config { return ep.cfg }

// Fabric returns the fabric the endpoint is bound to. Protocol layers
// that bypass the AM reliability machinery (the in-network collective
// plane) use it to reach the topology and charge link occupancy with
// the endpoint's cost model.
func (ep *Endpoint) Fabric() *netsim.Fabric { return ep.fab }

// ChargeSend charges the per-message sender CPU cost (o + bytes*G_cpu)
// without queueing a packet. Used by layers that model their own wire
// path but keep the endpoint's LogP overhead accounting.
func (ep *Endpoint) ChargeSend(p *sim.Proc, payloadBytes int) {
	ep.chargeCPU(p, ep.cfg.SendOverhead+sim.Duration(payloadBytes)*ep.cfg.SendPerByte)
}

// ChargeRecv is ChargeSend's receive-side counterpart.
func (ep *Endpoint) ChargeRecv(p *sim.Proc, payloadBytes int) {
	ep.chargeCPU(p, ep.cfg.RecvOverhead+sim.Duration(payloadBytes)*ep.cfg.RecvPerByte)
}

// Register installs h for id. Re-registering replaces the handler.
func (ep *Endpoint) Register(id HandlerID, h Handler) {
	ep.handlers[id] = handlerEntry{fn: h, name: ep.handlerName(id)}
}

// handlerName names the worker processes that run handler id.
func (ep *Endpoint) handlerName(id HandlerID) string {
	return fmt.Sprintf("am%d/h%d", ep.id, id)
}

// Detach disconnects the endpoint (simulating a crashed node): incoming
// packets vanish, nothing is transmitted, and every outstanding send
// fails immediately — callers blocked in Call or Flush unwedge with
// errors instead of waiting on a wire that no longer exists. Peers
// observe ErrTimeout.
func (ep *Endpoint) Detach() {
	ep.detached = true
	ep.fab.SetDeliveryPort(ep.id, ep.cfg.Port, nil)
	pending := make([]*pending, 0, len(ep.pend))
	for _, pd := range ep.pend {
		pending = append(pending, pd)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].seq < pending[j].seq })
	for _, pd := range pending {
		ep.complete(pd, nil, true)
	}
}

// Reattach reconnects a detached endpoint — a crashed node rebooting
// and rejoining the fabric. Delivery resumes and new sends transmit
// again. State that died with the node stays dead: pending sends were
// already failed by Detach, and the sequence counter continues from
// where it left off, so peers' duplicate-suppression caches remain
// correct across the outage.
func (ep *Endpoint) Reattach() {
	if !ep.detached {
		return
	}
	ep.detached = false
	ep.fab.SetDeliveryPort(ep.id, ep.cfg.Port, ep.deliver)
}

// Detached reports whether the endpoint is currently detached.
func (ep *Endpoint) Detached() bool { return ep.detached }

// Stats returns a snapshot of counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// Call sends a request to handler h on dst carrying arg/payloadBytes and
// blocks until the reply arrives, retrying on loss. It returns the
// handler's reply value.
func (ep *Endpoint) Call(p *sim.Proc, dst netsim.NodeID, h HandlerID, arg any, payloadBytes int) (any, error) {
	pd := ep.post(p, dst, h, arg, payloadBytes, false)
	for !pd.finished {
		pd.done.Wait(p)
	}
	if pd.failed {
		return nil, fmt.Errorf("am: call to node %d handler %d: %w", dst, h, ErrTimeout)
	}
	return pd.reply, nil
}

// Send is a reliable one-way message: it blocks until the destination
// acknowledges (the handler's nil reply). Use SendAsync for pipelined
// streams.
func (ep *Endpoint) Send(p *sim.Proc, dst netsim.NodeID, h HandlerID, arg any, payloadBytes int) error {
	_, err := ep.Call(p, dst, h, arg, payloadBytes)
	return err
}

// SendAsync posts a one-way message and returns once it is accepted into
// the per-destination window, blocking only when Window sends are
// already outstanding to dst. Losses are retried in the background;
// permanently failed sends are counted in Stats().Failures.
func (ep *Endpoint) SendAsync(p *sim.Proc, dst netsim.NodeID, h HandlerID, arg any, payloadBytes int) {
	for ep.outstanding[dst] >= ep.cfg.Window {
		ep.windowSig.Wait(p)
	}
	ep.post(p, dst, h, arg, payloadBytes, true)
}

// Flush blocks until every asynchronous send to every destination has
// been acknowledged or abandoned.
func (ep *Endpoint) Flush(p *sim.Proc) {
	for {
		total := 0
		for _, n := range ep.outstanding {
			total += n
		}
		if total == 0 {
			return
		}
		ep.windowSig.Wait(p)
	}
}

// post charges send overhead, registers the pending entry, and hands the
// packet to the transmit process.
func (ep *Endpoint) post(p *sim.Proc, dst netsim.NodeID, h HandlerID, arg any, payloadBytes int, async bool) *pending {
	if ep.detached {
		// A crashed host cannot send: fail synchronously.
		pd := &pending{seq: 0, dst: dst, async: async, finished: true, failed: true}
		if !async {
			pd.done = sim.NewSignal(ep.eng, "am/dead")
		}
		ep.stats.Failures++
		return pd
	}
	ep.chargeCPU(p, ep.cfg.SendOverhead+sim.Duration(payloadBytes)*ep.cfg.SendPerByte)
	ep.seq++
	seq := ep.seq
	pd := &pending{
		w: wire{
			kind:       kindRequest,
			seq:        seq,
			handler:    h,
			arg:        arg,
			bytes:      payloadBytes,
			ackedBelow: ep.lowestUnack[dst],
		},
		pkt: netsim.Packet{
			Src:     ep.id,
			SrcPort: ep.cfg.Port,
			Dst:     dst,
			Port:    ep.cfg.Port,
			Bytes:   payloadBytes + ep.cfg.HeaderBytes,
		},
		seq:   seq,
		dst:   dst,
		async: async,
	}
	pd.pkt.Payload = &pd.w
	pkt := &pd.pkt
	if !async {
		pd.done = sim.NewSignal(ep.eng, "am/call")
	}
	ep.pend[seq] = pd
	if async {
		ep.outstanding[dst]++
	}
	ep.updateLowestUnack(dst)
	ep.stats.Sent++
	ep.tx.Put(pkt)
	ep.armTimer(pd, ep.timeoutFor(pkt))
	return pd
}

// armTimer (re)arms pd's retransmission or completion deadline d from
// now.
func (ep *Endpoint) armTimer(pd *pending, d sim.Duration) {
	pd.timer = ep.eng.AtArg(ep.eng.Now()+d, ep.onTimeoutFn, pd)
}

func (ep *Endpoint) onTimeout(arg any) {
	pd := arg.(*pending)
	if pd.finished {
		return
	}
	if ep.detached {
		ep.complete(pd, nil, true)
		return
	}
	if pd.acked {
		// Acknowledged but unanswered within the completion window: the
		// reply may have been lost, or the destination crashed. Fall back
		// to probing — a duplicate request is re-acked while the handler
		// runs and re-answered from the reply cache once it finishes, so
		// a live destination always converges. Only a dead one exhausts
		// the retry budget (acks reset it, see onAck).
		pd.acked = false
	}
	if pd.retries >= ep.cfg.MaxRetries {
		ep.complete(pd, nil, true)
		return
	}
	pd.retries++
	ep.stats.Retries++
	ep.tx.Put(&pd.pkt)
	// Exponential backoff: under congestion (incast at the receiver's
	// link) the first timeout estimate is wrong by the backlog's depth;
	// doubling keeps retransmissions from feeding the collapse they are
	// reacting to.
	backoff := uint(pd.retries)
	if backoff > 6 {
		backoff = 6
	}
	ep.armTimer(pd, ep.timeoutFor(&pd.pkt)<<backoff)
}

// onAck switches a pending send from retransmission mode to the (much
// longer) completion deadline.
func (ep *Endpoint) onAck(seq uint64) {
	pd, ok := ep.pend[seq]
	if !ok || pd.finished || pd.acked {
		return
	}
	pd.acked = true
	pd.retries = 0 // a live destination refreshes the retry budget
	pd.timer.Stop()
	ep.armTimer(pd, ep.cfg.CompletionTimeout)
}

// timeoutFor sizes the retransmission timer to the message: the base
// timeout plus enough round-trip serialization slack that a large bulk
// transfer (or one queued behind a full window of them) is not declared
// lost while it is still streaming onto the wire.
func (ep *Endpoint) timeoutFor(pkt *netsim.Packet) sim.Duration {
	ser := ep.fab.SerializationTime(pkt.Bytes)
	return ep.cfg.RetryTimeout + 2*ser*sim.Duration(ep.cfg.Window+1)
}

// complete finishes a pending send: failure or reply.
func (ep *Endpoint) complete(pd *pending, reply any, failed bool) {
	if pd.finished {
		return
	}
	pd.finished = true
	pd.reply = reply
	pd.failed = failed
	pd.timer.Stop()
	delete(ep.pend, pd.seq)
	if pd.async {
		ep.outstanding[pd.dst]--
	}
	ep.updateLowestUnack(pd.dst)
	if failed {
		ep.stats.Failures++
	}
	if pd.done != nil {
		pd.done.Broadcast()
	}
	ep.windowSig.Broadcast()
}

// updateLowestUnack recomputes the cumulative-ack horizon for dst.
func (ep *Endpoint) updateLowestUnack(dst netsim.NodeID) {
	low := ep.seq + 1
	found := false
	for _, pd := range ep.pend {
		if pd.dst == dst && pd.seq < low {
			low = pd.seq
			found = true
		}
	}
	if !found {
		low = ep.seq + 1
	}
	ep.lowestUnack[dst] = low
}

// chargeCPU accounts protocol processing time. System endpoints (empty
// Class) run in interrupt context — they must not queue behind a guest
// job's timeslice, or acks stall and retransmission storms follow.
// Job-classed endpoints model user-level libraries polled by the
// application: their processing competes under the local scheduler,
// which is exactly the Figure 4 effect.
func (ep *Endpoint) chargeCPU(p *sim.Proc, d sim.Duration) {
	if ep.cfg.Class == "" {
		ep.node.CPU.ComputeSystem(p, d)
		return
	}
	ep.node.CPU.ComputeAs(p, ep.cfg.Class, d)
}

// txLoop drains the transmit queue onto the fabric, serialising packets
// on the node's link like a NIC DMA engine.
func (ep *Endpoint) txLoop(p *sim.Proc) {
	for {
		pkt := ep.tx.Get(p)
		if ep.detached {
			ep.fab.FreePacket(pkt) // recycles pooled acks/replies; no-op on requests
			continue
		}
		ep.fab.Send(p, pkt)
	}
}

// deliver runs at packet arrival (fabric event context): bound buffering
// then hand to the dispatcher.
func (ep *Endpoint) deliver(pkt *netsim.Packet) {
	if ep.detached {
		ep.fab.FreePacket(pkt)
		return
	}
	if ep.rq.Len() >= ep.cfg.BufferSlots {
		ep.stats.Overflows++
		ep.fab.FreePacket(pkt)
		return
	}
	ep.rq.Put(pkt)
}

// dispatch drains arrivals: charges receive overhead, deduplicates, runs
// handlers, and transmits replies.
func (ep *Endpoint) dispatch(p *sim.Proc) {
	for {
		pkt := ep.rq.Get(p)
		switch w := pkt.Payload.(type) {
		case *ackOf:
			ep.chargeCPU(p, ep.cfg.RecvOverhead)
			ep.onAck(w.seq)
			ep.fab.FreePacket(pkt)
		case *wire:
			ep.chargeCPU(p, ep.cfg.RecvOverhead+sim.Duration(w.bytes)*ep.cfg.RecvPerByte)
			if w.kind == kindReply {
				if pd, ok := ep.pend[w.seq]; ok {
					ep.complete(pd, w.arg, false)
				}
				// Unknown seq: a duplicate reply for a call that already
				// completed — drop it.
				ep.fab.FreePacket(pkt)
				continue
			}
			// Transport receipt first: the sender stops retransmitting
			// while the handler (possibly a long disk operation) runs.
			// Acks are single-shot (a retried request generates a fresh
			// one), so the packet comes from the fabric pool and the
			// receiving dispatcher recycles it.
			ack := ep.fab.NewPacket()
			ack.Src = ep.id
			ack.SrcPort = ep.cfg.Port
			ack.Dst = pkt.Src
			ack.Port = pkt.SrcPort
			ack.Bytes = ep.cfg.HeaderBytes
			ack.Payload = (*ackOf)(w)
			ep.tx.Put(ack)
			// Request packets are never pooled: the sender retains them
			// for retransmission, so there is nothing to recycle here.
			ep.handleRequest(p, pkt, w)
		default:
			ep.fab.FreePacket(pkt)
		}
	}
}

// handlerRun carries one request into the worker process that runs its
// handler. The endpoint recycles them, each with its body bound once, so
// launching a handler allocates nothing beyond the process itself.
type handlerRun struct {
	ep      *Endpoint
	h       Handler
	src     netsim.NodeID
	srcPort int
	seq     uint64
	arg     any
	bytes   int
	body    func(*sim.Proc)
}

// run is a handler worker's body: it copies the request out, recycles r,
// then runs the handler and replies.
func (r *handlerRun) run(wp *sim.Proc) {
	ep, h, src, srcPort, seq := r.ep, r.h, r.src, r.srcPort, r.seq
	m := Msg{Src: src, Arg: r.arg, Bytes: r.bytes}
	r.h, r.arg = nil, nil
	ep.runs = append(ep.runs, r)
	var reply any
	replyBytes := 0
	if h != nil {
		reply, replyBytes = h(wp, m)
	}
	ep.stats.Handled++
	rw := &wire{kind: kindReply, seq: seq, arg: reply, bytes: replyBytes}
	ep.seen[src].put(seq, rw)
	ep.sendReply(wp, src, srcPort, rw)
}

// handleRequest deduplicates and launches the handler. Handlers run in
// their own worker process so they may block — nested calls, disk I/O —
// without stalling this endpoint's dispatcher (which must keep matching
// replies for exactly that kind of nested call).
func (ep *Endpoint) handleRequest(p *sim.Proc, pkt *netsim.Packet, w *wire) {
	src := pkt.Src
	cache := ep.seen[src]
	if cache == nil {
		cache = &dedupCache{replies: make(map[uint64]*wire)}
		ep.seen[src] = cache
	}
	// Prune entries the sender has confirmed.
	cache.prune(w.ackedBelow)
	if cached, dup := cache.replies[w.seq]; dup {
		ep.stats.Duplicates++
		if cached != nil {
			ep.sendReply(p, src, pkt.SrcPort, cached)
		}
		return
	}
	cache.put(w.seq, nil)
	he, ok := ep.handlers[w.handler]
	if !ok {
		he.name = ep.handlerName(w.handler)
	}
	var r *handlerRun
	if n := len(ep.runs); n > 0 {
		r = ep.runs[n-1]
		ep.runs[n-1] = nil
		ep.runs = ep.runs[:n-1]
	} else {
		r = &handlerRun{ep: ep}
		r.body = r.run
	}
	r.h, r.src, r.srcPort, r.seq, r.arg, r.bytes = he.fn, src, pkt.SrcPort, w.seq, w.arg, w.bytes
	ep.eng.Spawn(he.name, r.body)
}

// sendReply transmits the reply wire rw to dst's port srcPort.
func (ep *Endpoint) sendReply(p *sim.Proc, dst netsim.NodeID, srcPort int, rw *wire) {
	ep.chargeCPU(p, ep.cfg.SendOverhead+sim.Duration(rw.bytes)*ep.cfg.SendPerByte)
	ep.stats.Replies++
	// Replies, like acks, are single-shot: a duplicate request is
	// answered with a fresh packet carrying the cached wire, so this one
	// can come from the pool and be recycled by the receiving dispatcher.
	pkt := ep.fab.NewPacket()
	pkt.Src = ep.id
	pkt.SrcPort = ep.cfg.Port
	pkt.Dst = dst
	pkt.Port = srcPort
	pkt.Bytes = rw.bytes + ep.cfg.HeaderBytes
	pkt.Payload = rw
	ep.tx.Put(pkt)
}
