// Package fabric is a packet-level network simulator: hosts with NICs,
// output-queued switches (store-and-forward or cut-through), byte-
// accurate serialization, FIFO egress queues with tail drop, and static
// shortest-path routing. The PTP and NTP baselines run on this fabric,
// so their precision degradation under load is an emergent property of
// real queueing rather than a tuned constant.
package fabric

import (
	"fmt"

	"github.com/dtplab/dtp/internal/eth"
	"github.com/dtplab/dtp/internal/link"
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// TCMode selects the transparent-clock behaviour of switches for PTP
// event frames.
type TCMode int

const (
	// TCOff disables residence-time correction.
	TCOff TCMode = iota
	// TCRealistic corrects the deterministic pipeline latency but not
	// congestion-dependent queue wait. This reproduces the field
	// observation (Zarick et al., cited by the paper §2.4.2) that
	// transparent clocks often behave like plain switches under
	// congestion: the correction is computed from calibrated constants
	// rather than a measured egress departure.
	TCRealistic
	// TCPerfect measures true residence time ingress-to-serialization
	// with only timestamp quantization noise — the textbook transparent
	// clock, available for ablation.
	TCPerfect
)

// Config describes the fabric hardware.
type Config struct {
	// Profile sets the line rate of every link (default 10 GbE).
	Profile phy.Profile
	// QueueCapBytes is the egress queue capacity per port.
	QueueCapBytes int
	// CutThrough selects cut-through switching (the paper's IBM G8264
	// is cut-through, which is known to behave well for PTP) instead of
	// store-and-forward.
	CutThrough bool
	// ProcDelay is the switch pipeline latency from ingress decision to
	// egress enqueue.
	ProcDelay sim.Time
	// HeaderBytes is how much of a frame a cut-through switch must
	// receive before forwarding begins.
	HeaderBytes int
	// TC selects the transparent-clock model for PTP event frames.
	TC TCMode
	// TCQuantNs is the transparent clock's timestamp resolution in
	// nanoseconds (correction error is uniform within ±TCQuantNs per
	// hop even when perfect).
	TCQuantNs int64
	// PTPPriority puts PTP event frames in a strict-priority queue at
	// every egress (the PFC/QoS configuration the paper's citations
	// examine). Transmission is non-preemptive: a priority frame still
	// waits out the bulk frame already on the wire, so queueing noise
	// shrinks to about one serialization time per hop rather than
	// vanishing.
	PTPPriority bool
}

// DefaultConfig returns a 10 GbE fabric with a 1 MiB egress queue and
// cut-through switching with a ~500 ns pipeline, transparent clocks in
// the realistic mode.
func DefaultConfig() Config {
	return Config{
		Profile:       phy.ProfileFor(phy.Speed10G),
		QueueCapBytes: 1 << 20,
		CutThrough:    true,
		ProcDelay:     500 * sim.Nanosecond,
		HeaderBytes:   64,
		TC:            TCRealistic,
		TCQuantNs:     8,
	}
}

// Handler consumes frames delivered to a host. rx is the arrival time of
// the frame's last bit at the NIC.
type Handler func(f *eth.Frame, rx sim.Time)

// Network is an instantiated packet fabric.
type Network struct {
	Sch   *sim.Scheduler
	Graph topo.Graph

	cfg Config
	rng *sim.RNG
	// ipg and headerTime are the serialization times of the minimum
	// interpacket gap and of a cut-through switch's header, fixed by cfg.
	ipg, headerTime sim.Time

	elements []*element
	flight   inFlight

	// tel holds telemetry handles; the zero value (uninstrumented) is a
	// set of nil handles whose updates are no-ops. See Instrument.
	tel fabricMetrics
}

// fabricMetrics aggregates packet-path telemetry across all ports.
type fabricMetrics struct {
	tr        *telemetry.Tracer
	enqueued  *telemetry.Counter
	dropped   *telemetry.Counter
	delivered *telemetry.Counter
	queuePeak *telemetry.Gauge
}

// Instrument attaches a metrics registry and/or event tracer to the
// fabric. Either argument may be nil.
func (n *Network) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	n.tel = fabricMetrics{
		tr: tr,
		enqueued: reg.Counter("fabric_frames_enqueued_total",
			"Frames accepted into an egress queue."),
		dropped: reg.Counter("fabric_frames_dropped_total",
			"Frames tail-dropped at a full egress queue."),
		delivered: reg.Counter("fabric_frames_delivered_total",
			"Frames delivered to host protocol handlers."),
		queuePeak: reg.Gauge("fabric_queue_bytes_peak",
			"High-water mark of any single egress queue, in bytes."),
	}
}

// element is a host or switch with its egress ports.
type element struct {
	net      *Network
	node     topo.Node
	ports    []*egressPort // one per attached link, in link order
	toward   []*egressPort // next-hop port by destination node; nil if none
	handlers []Handler     // indexed by eth.Proto

	delivered uint64
}

// egressPort is one transmit queue plus its wire.
type egressPort struct {
	owner   *element
	peer    *element
	linkIdx int
	wire    *link.Wire

	queue      frameRing // bulk traffic
	prio       frameRing // PTP event frames when PTPPriority is set
	queueBytes int
	busy       bool

	enqueued uint64
	dropped  uint64
}

// New builds a fabric over the topology graph.
func New(sch *sim.Scheduler, seed uint64, graph topo.Graph, cfg Config) (*Network, error) {
	if err := graph.Validate(); err != nil {
		return nil, err
	}
	if cfg.Profile.PeriodFs == 0 {
		return nil, fmt.Errorf("fabric: config has no PHY profile")
	}
	if cfg.QueueCapBytes <= 0 {
		return nil, fmt.Errorf("fabric: queue capacity must be positive")
	}
	n := &Network{
		Sch:   sch,
		Graph: graph,
		cfg:   cfg,
		rng:   sim.NewRNG(seed, "fabric"),

		ipg:        cfg.Profile.ByteTime(phy.MinInterpacketIdles),
		headerTime: cfg.Profile.ByteTime(cfg.HeaderBytes),
	}
	for _, node := range graph.Nodes {
		n.elements = append(n.elements, &element{net: n, node: node})
	}
	// linkEnds[li] holds the egress ports at link li's A and B ends.
	linkEnds := make([][2]*egressPort, len(graph.Links))
	for li, l := range graph.Links {
		delay := link.DelayForLength(l.LengthM)
		wa, err := link.New(sch, n.rng.Fork(fmt.Sprintf("w%da", li)), link.Config{Delay: delay})
		if err != nil {
			return nil, fmt.Errorf("fabric: link %d: %w", li, err)
		}
		wb, err := link.New(sch, n.rng.Fork(fmt.Sprintf("w%db", li)), link.Config{Delay: delay})
		if err != nil {
			return nil, fmt.Errorf("fabric: link %d: %w", li, err)
		}
		a, b := n.elements[l.A], n.elements[l.B]
		linkEnds[li] = [2]*egressPort{
			{owner: a, peer: b, linkIdx: li, wire: wa},
			{owner: b, peer: a, linkIdx: li, wire: wb},
		}
		a.ports = append(a.ports, linkEnds[li][0])
		b.ports = append(b.ports, linkEnds[li][1])
	}
	for id, hops := range graph.NextHop() {
		el := n.elements[id]
		el.toward = make([]*egressPort, len(hops))
		for dst, li := range hops {
			if dst == id || li < 0 {
				continue
			}
			if graph.Links[li].B == id {
				el.toward[dst] = linkEnds[li][1]
			} else {
				el.toward[dst] = linkEnds[li][0]
			}
		}
	}
	return n, nil
}

// Config returns the fabric configuration.
func (n *Network) Config() Config { return n.cfg }

// Handle registers a protocol handler on a host node.
func (n *Network) Handle(node int, proto eth.Proto, h Handler) {
	el := n.elements[node]
	for len(el.handlers) <= int(proto) {
		el.handlers = append(el.handlers, nil)
	}
	el.handlers[proto] = h
}

// Send injects a frame at its source host. Returns false if the egress
// queue dropped it.
func (n *Network) Send(f *eth.Frame) bool {
	if f.Size <= 0 {
		panic("fabric: frame with no size")
	}
	el := n.elements[f.Src]
	port := el.toward[f.Dst]
	if port == nil {
		panic(fmt.Sprintf("fabric: no route %d -> %d", f.Src, f.Dst))
	}
	return port.enqueue(f)
}

// QueueDepthBytes reports the egress queue occupancy from node `from`
// toward node `dst` (next hop), for monitoring.
func (n *Network) QueueDepthBytes(from, dst int) int {
	p := n.elements[from].toward[dst]
	if p == nil {
		return 0
	}
	return p.queueBytes
}

// Drops returns total frames tail-dropped across the fabric.
func (n *Network) Drops() uint64 {
	var total uint64
	for _, el := range n.elements {
		for _, p := range el.ports {
			total += p.dropped
		}
	}
	return total
}

// Delivered returns total frames delivered to host handlers.
func (n *Network) Delivered() uint64 {
	var total uint64
	for _, el := range n.elements {
		total += el.delivered
	}
	return total
}

// --- Packet-path events -----------------------------------------------

// Packet-path actor opcodes. Every hop of a frame runs on pooled
// scheduler events: the frame rides in the event as its in-flight slot
// (argument a), so no closure is captured per hop.
const (
	opFirstBit uint8 = iota // element: a = slot, b = serialization time; leading edge arrived
	opForward               // switch: a = slot, b = ingress time; header and pipeline delay done
	opDeliver               // host: a = slot; last bit arrived
	opTxDone                // egressPort: serialization plus interpacket gap done
)

// inFlight is the per-Network table of frames on a wire or inside an
// element's receive path, addressed by slot. A slot is taken when a
// frame starts serialization and returned when the receiving element
// delivers or forwards it; freed slots are reused LIFO, so a steady
// load stops growing the table once it reaches its in-flight peak.
type inFlight struct {
	frames []*eth.Frame
	free   []uint64
}

// put stores f and returns its slot.
func (t *inFlight) put(f *eth.Frame) uint64 {
	if k := len(t.free); k > 0 {
		slot := t.free[k-1]
		t.free = t.free[:k-1]
		t.frames[slot] = f
		return slot
	}
	t.frames = append(t.frames, f)
	return uint64(len(t.frames) - 1)
}

// take removes and returns the frame in slot, releasing the slot.
func (t *inFlight) take(slot uint64) *eth.Frame {
	f := t.frames[slot]
	t.frames[slot] = nil
	t.free = append(t.free, slot)
	return f
}

// frameRing is an egress FIFO: a power-of-two ring that doubles when
// full and nils every slot it dequeues, so a departed frame is never
// pinned by the queue's backing array.
type frameRing struct {
	buf     []*eth.Frame
	head, n int
}

func (r *frameRing) push(f *eth.Frame) {
	if r.n == len(r.buf) {
		buf := make([]*eth.Frame, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = f
	r.n++
}

func (r *frameRing) pop() *eth.Frame {
	f := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return f
}

// --- Egress queue -----------------------------------------------------

func (p *egressPort) enqueue(f *eth.Frame) bool {
	net := p.owner.net
	if p.queueBytes+f.Size > net.cfg.QueueCapBytes {
		p.dropped++
		net.tel.dropped.Inc()
		if net.tel.tr.Enabled(telemetry.KindFrameDrop) {
			net.tel.tr.Record(net.Sch.Now(), telemetry.KindFrameDrop,
				p.owner.node.Name, int64(f.Size), int64(p.linkIdx), "")
		}
		return false
	}
	p.enqueued++
	net.tel.enqueued.Inc()
	if net.cfg.PTPPriority && f.Proto == eth.ProtoPTPEvent {
		p.prio.push(f)
	} else {
		p.queue.push(f)
	}
	p.queueBytes += f.Size
	net.tel.queuePeak.SetMax(float64(p.queueBytes))
	if !p.busy {
		p.startTx()
	}
	return true
}

func (p *egressPort) startTx() {
	var f *eth.Frame
	if p.prio.n > 0 {
		f = p.prio.pop()
	} else {
		f = p.queue.pop()
	}
	p.queueBytes -= f.Size
	p.busy = true

	n := p.owner.net
	now := n.Sch.Now()
	if p.owner.node.Kind == topo.Host && f.Hops == 0 {
		// Hardware TX timestamp: first bit leaving the source NIC.
		f.TxStart = now
		if f.OnTxStart != nil {
			f.OnTxStart(now)
		}
	}
	if f.TCPending {
		// Perfect transparent clock: residence measured through to the
		// start of serialization, including all queue wait.
		f.CorrectionPs += int64(now - f.TCIngress)
		f.TCPending = false
	}
	ser := n.cfg.Profile.ByteTime(f.Size)
	// First bit hits the wire now; the receiver sees it after the
	// propagation delay and decides when the frame is usable.
	slot := n.flight.put(f)
	if !p.wire.SendActor(p.peer, opFirstBit, slot, uint64(ser)) {
		n.flight.take(slot)
	}
	// Serialization complete: the port may start the next frame after
	// the minimum interpacket gap.
	n.Sch.AfterActor(ser+n.ipg, p, opTxDone, 0, 0)
}

// OnEvent implements sim.Actor: serialization plus IPG is done, so the
// port may start its next frame.
func (p *egressPort) OnEvent(uint8, uint64, uint64) {
	p.busy = false
	if p.queue.n > 0 || p.prio.n > 0 {
		p.startTx()
	}
}

// OnEvent implements sim.Actor for the element's three packet-path
// opcodes; a names the frame's in-flight slot.
func (el *element) OnEvent(code uint8, a, b uint64) {
	switch code {
	case opFirstBit:
		el.firstBitArrival(a, sim.Time(b))
	case opForward:
		el.forward(el.net.flight.take(a), sim.Time(b))
	case opDeliver:
		el.deliver(el.net.flight.take(a))
	}
}

// firstBitArrival handles the leading edge of the frame in flight slot
// `slot` at an element; ser is its serialization time. The frame keeps
// its slot until the element delivers or forwards it.
func (el *element) firstBitArrival(slot uint64, ser sim.Time) {
	n := el.net
	if el.node.Kind == topo.Host {
		// NICs receive the whole frame before handing it up; the RX
		// hardware timestamp is the last-bit arrival.
		n.Sch.AfterActor(ser, el, opDeliver, slot, 0)
		return
	}
	// Switch: forward after the header (cut-through) or the whole frame
	// (store-and-forward), plus pipeline delay.
	wait := ser
	if n.cfg.CutThrough {
		wait = min(n.headerTime, ser)
	}
	n.Sch.AfterActor(wait+n.cfg.ProcDelay, el, opForward, slot, uint64(n.Sch.Now()))
}

// forward moves a frame whose leading edge reached this switch at
// ingress into its next-hop egress queue.
func (el *element) forward(f *eth.Frame, ingress sim.Time) {
	f.Hops++
	egress := el.toward[f.Dst]
	if egress == nil {
		return // destination unreachable (should not happen)
	}
	if f.Proto == eth.ProtoPTPEvent {
		el.applyTransparentClock(f, ingress)
	}
	egress.enqueue(f)
}

// applyTransparentClock adds the switch's residence-time estimate to the
// frame's correction field, per the configured TC model. ingress is the
// leading-edge arrival; the frame is about to be enqueued at egress.
func (el *element) applyTransparentClock(f *eth.Frame, ingress sim.Time) {
	n := el.net
	switch n.cfg.TC {
	case TCOff:
		return
	case TCRealistic:
		// Corrects the calibrated pipeline latency only: the wait the
		// frame is about to suffer in the egress queue goes unmeasured,
		// so under congestion the correction undershoots by the queue
		// delay — the degradation the paper observed.
		f.CorrectionPs += int64(n.Sch.Now() - ingress)
	case TCPerfect:
		// Defer the correction until serialization starts so the true
		// queue wait is included; see egressPort.startTx.
		f.TCIngress = ingress
		f.TCPending = true
	}
	// Timestamp quantization, both modes.
	if q := n.cfg.TCQuantNs; q > 0 {
		f.CorrectionPs += n.rng.Int64N(2*q*1000+1) - q*1000
	}
}

func (el *element) deliver(f *eth.Frame) {
	el.delivered++
	el.net.tel.delivered.Inc()
	if p := int(f.Proto); p >= 0 && p < len(el.handlers) && el.handlers[p] != nil {
		el.handlers[p](f, el.net.Sch.Now())
	}
}
