package transport

import "dssp/internal/obs"

// Metrics meters a transport endpoint: frames and bytes by message type
// and direction, and batch sizes for coalesced sends. Counters are
// resolved once at construction (message types are a small dense enum),
// so the per-frame cost is one or two atomic adds — no map lookups on the
// wire path. All methods are nil-safe: an unmetered connection carries a
// nil *Metrics and pays only a pointer test.
//
// Directions are from the owning process's point of view: "sent" is what
// this side wrote, "recv" what it read. The byte counts are exact frame
// sizes (header and body) on every carrier, the in-process one included.
type Metrics struct {
	sentFrames, recvFrames [MsgPromote + 1]*obs.Counter
	sentBytes, recvBytes   [MsgPromote + 1]*obs.Counter
	batch                  *obs.Histogram
	// bodyReuse and bodyAlloc count received payload frames by where their
	// body went: a recycled leased buffer or a fresh allocation. Their ratio
	// is the one source for "receive stopped allocating".
	bodyReuse, bodyAlloc *obs.Counter
	// conns counts open socket connections by carrier — the one source for
	// which carrier a session is on. laneSent and laneRecv count the payload
	// frames whose body crossed in the shared arena, laneInPlace those of the
	// sent that left from the resident push slot with no copy, laneRefs those
	// of the received that were references into the peer's generation region,
	// laneInline those that qualified but found no free slot and went on the
	// socket.
	conns                                                 obs.GaugeVec
	laneSent, laneRecv, laneInPlace, laneRefs, laneInline *obs.Counter
}

// The carriers of a socket connection, as dssp_transport_conns labels them.
const (
	carrierTCP  = "tcp"
	carrierLane = "lane"
)

// NewMetrics registers the transport metric families on reg and returns a
// meter. Per-type series are pre-created for every protocol message type
// so a scrape sees the full catalog (at zero) before traffic flows.
func NewMetrics(reg *obs.Registry) *Metrics {
	frames := reg.CounterVec("dssp_transport_frames_total",
		"Transport frames by direction and message type.", "dir", "type")
	bytes := reg.CounterVec("dssp_transport_bytes_total",
		"Transport payload bytes by direction and message type.", "dir", "type")
	laneFrames := reg.CounterVec("dssp_transport_lane_frames_total",
		"Payload frames whose body crossed in the lane's shared arena, by direction.", "dir")
	m := &Metrics{
		conns: reg.GaugeVec("dssp_transport_conns",
			"Open socket connections by carrier: tcp, or the same-host shared-memory lane.", "carrier"),
		laneSent: laneFrames.With("sent"),
		laneRecv: laneFrames.With("recv"),
		laneInPlace: reg.Counter("dssp_transport_lane_in_place_total",
			"Payload frames sent from the lane's resident push slot, where the sender computed them: no copy."),
		laneRefs: reg.Counter("dssp_transport_lane_refs_total",
			"Payload frames received as references into the peer's generation region: read where the sender wrote them, nothing copied."),
		laneInline: reg.Counter("dssp_transport_lane_inline_total",
			"Payload frames sent inline on a lane connection because the arena had no free slot to take them."),
		batch: reg.Histogram("dssp_transport_batch_size",
			"Messages coalesced per batched send.", obs.SizeBuckets),
		bodyReuse: reg.Counter("dssp_transport_recv_body_reuse_total",
			"Received payload frames read into a recycled leased buffer."),
		bodyAlloc: reg.Counter("dssp_transport_recv_body_alloc_total",
			"Received payload frames read into a freshly allocated buffer."),
	}
	for t := MsgRegister; t <= MsgPromote; t++ {
		m.sentFrames[t] = frames.With("sent", t.String())
		m.recvFrames[t] = frames.With("recv", t.String())
		m.sentBytes[t] = bytes.With("sent", t.String())
		m.recvBytes[t] = bytes.With("recv", t.String())
	}
	m.conns.With(carrierTCP)
	m.conns.With(carrierLane)
	return m
}

// Sent records one outbound frame of n bytes. Every carrier calls it before
// the frame can reach the peer, so a frame whose write then fails stays
// counted.
func (m *Metrics) Sent(t MessageType, n int) {
	if m == nil {
		return
	}
	m.sentFrames[t].Inc()
	m.sentBytes[t].Add(uint64(n))
}

// Received records one inbound frame of n bytes.
func (m *Metrics) Received(t MessageType, n int) {
	if m == nil {
		return
	}
	m.recvFrames[t].Inc()
	m.recvBytes[t].Add(uint64(n))
}

// recvBody records where the binary wire read one frame's body (the
// frameReader's body* constants); control frames in the shared scratch count
// as neither reuse nor allocation.
func (m *Metrics) recvBody(where int) {
	if m == nil {
		return
	}
	switch where {
	case bodyReused:
		m.bodyReuse.Inc()
	case bodyAlloc:
		m.bodyAlloc.Inc()
	case bodyLane:
		m.laneRecv.Inc()
	case bodyRef:
		m.laneRecv.Inc()
		m.laneRefs.Inc()
	}
}

// laneSentFrame records one frame whose body left through the arena — from
// the push slot, uncopied, when inPlace — and laneInlined one that qualified
// but found the arena full.
func (m *Metrics) laneSentFrame(inPlace bool) {
	if m == nil {
		return
	}
	m.laneSent.Inc()
	if inPlace {
		m.laneInPlace.Inc()
	}
}

func (m *Metrics) laneInlined() {
	if m != nil {
		m.laneInline.Inc()
	}
}

// connOpened and connClosed track the open connections on carrier.
func (m *Metrics) connOpened(carrier string) {
	if m != nil {
		m.conns.With(carrier).Add(1)
	}
}

func (m *Metrics) connClosed(carrier string) {
	if m != nil {
		m.conns.With(carrier).Add(-1)
	}
}

// Batch records one coalesced send of n messages.
func (m *Metrics) Batch(n int) {
	if m == nil {
		return
	}
	m.batch.Observe(float64(n))
}
