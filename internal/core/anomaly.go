package core

// Clock-anomaly detection: the synchronization paradigms trust each worker's
// reported iteration clock and pull version, so a Byzantine worker can lie
// about either — claim a base version it cannot possibly hold to look
// fresher than it is, or push without pulling to flood the update stream
// with outsized influence. ClockMonitor is the shared detector: the real
// parameter server's guard (internal/ps) and the cluster simulator's
// adversary scenarios (internal/simulate) both feed it the per-worker
// push/pull stream and act on the anomalies it reports.

// Anomaly identifies one kind of clock misbehaviour.
type Anomaly int

const (
	// AnomalyFutureVersion is a push whose claimed base version exceeds any
	// version the server has ever produced — provably a lie, since the
	// worker cannot have pulled state that does not exist. An honest worker
	// can race (pull at v, push while v advances) only in the direction of
	// staleness, never freshness.
	AnomalyFutureVersion Anomaly = iota + 1
	// AnomalyPushFlood is a worker pushing repeatedly without pulling: the
	// worker protocol is pull-compute-push, so pushes-per-pull above a small
	// slack (reconnect retries) means the worker is pumping updates to
	// dominate aggregation windows.
	AnomalyPushFlood
)

// String names the anomaly.
func (a Anomaly) String() string {
	switch a {
	case AnomalyFutureVersion:
		return "future-version"
	case AnomalyPushFlood:
		return "push-flood"
	default:
		return "unknown"
	}
}

// DefaultFloodSlack is how many pushes a worker may make per pull before
// AnomalyPushFlood fires. Honest workers push once per pull; the slack
// absorbs reconnect-and-retry sequences.
const DefaultFloodSlack = 3

// DefaultMaxStrikes is how many anomaly flags evict a worker, on the real
// server's guard and in the simulator alike.
const DefaultMaxStrikes = 3

// ClockMonitor tracks per-worker push/pull clocks and flags impossible or
// abusive progressions. It is not synchronized: the caller serializes
// observations per its own locking discipline (the server observes on the
// connection goroutine under its guard lock; the simulator is single
// threaded).
type ClockMonitor struct {
	floodSlack int
	sincePull  []int
	flags      []int
}

// NewClockMonitor returns a monitor for n workers. floodSlack <= 0 selects
// DefaultFloodSlack.
func NewClockMonitor(n, floodSlack int) *ClockMonitor {
	if floodSlack <= 0 {
		floodSlack = DefaultFloodSlack
	}
	return &ClockMonitor{
		floodSlack: floodSlack,
		sincePull:  make([]int, n),
		flags:      make([]int, n),
	}
}

// ObservePull records that worker w pulled, resetting its flood counter.
func (m *ClockMonitor) ObservePull(w WorkerID) {
	m.sincePull[w] = 0
}

// ObservePush records one push from worker w claiming claimedBase as the
// version it computed against, with serverVersion the highest version the
// server has ever handed out (Store.Reserved on the real server). It
// returns the anomalies this push exhibits, if any.
func (m *ClockMonitor) ObservePush(w WorkerID, claimedBase, serverVersion int64) []Anomaly {
	var out []Anomaly
	if claimedBase > serverVersion {
		out = append(out, AnomalyFutureVersion)
	}
	m.sincePull[w]++
	if m.sincePull[w] > m.floodSlack {
		out = append(out, AnomalyPushFlood)
	}
	m.flags[w] += len(out)
	return out
}

// Flags returns how many anomalies worker w has accumulated.
func (m *ClockMonitor) Flags(w WorkerID) int { return m.flags[w] }

// FlagCounts returns a copy of the per-worker anomaly counts.
func (m *ClockMonitor) FlagCounts() []int {
	out := make([]int, len(m.flags))
	copy(out, m.flags)
	return out
}
