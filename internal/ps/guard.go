package ps

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"dssp/internal/tensor"
)

// Guard thresholds.
const (
	// DefaultNormFactor flags a push whose total gradient L2 norm exceeds
	// this multiple of the trailing median push norm. Honest gradients drift
	// in magnitude across training; an 8× jump against the recent median is
	// an attack or a numerical blow-up, both worth rejecting.
	DefaultNormFactor = 8.0
	// DefaultFloodSlack is how many pushes a worker may make per pull
	// before it is flagged for flooding. Honest workers push once per pull;
	// the slack absorbs reconnect-and-retry sequences.
	DefaultFloodSlack = 3
	// DefaultMaxStrikes is how many flags evict a worker.
	DefaultMaxStrikes = 3
	// normHistory is the length of the trailing window the median push norm
	// is computed over.
	normHistory = 64
)

// GuardConfig enables the server-side anomaly guard: every push is screened
// for gradient-norm outliers (DefaultNormFactor), impossible version claims
// (lying clocks) and push floods (DefaultFloodSlack). A flagged push is
// dropped — the policy still releases workers exactly as if it were applied,
// so barrier paradigms never deadlock on a rejected payload — and a worker
// accumulating DefaultMaxStrikes flags is evicted through the session
// lease layer, exactly like a worker whose lease expired. The public surface
// exposes it as dssp.Guard.
type GuardConfig struct {
	// Enabled turns the guard on. The zero value screens nothing.
	Enabled bool
}

// GuardStats is the guard's per-run accounting, the raw material for the
// experiment harness's detection rates: who was flagged how often, who was
// evicted, and how many pushes the guard rejected.
type GuardStats struct {
	// Flags is the number of anomaly flags per worker slot.
	Flags []int
	// Evicted lists the workers the guard evicted, in eviction order.
	Evicted []int
	// DroppedPushes is the number of pushes rejected by the guard — every
	// flagged push, the evicting one included; read from
	// dssp_push_dropped_total{reason="guard"}.
	DroppedPushes int
}

// guardVerdict is the outcome of screening one push.
type guardVerdict struct {
	drop  bool
	evict bool
}

// guard is the server's per-run anomaly detector. All methods are
// goroutine-safe: pushes from different workers screen concurrently on
// their connection goroutines.
type guard struct {
	// sm is the server's instrument bundle: the guard counts its flags,
	// evictions and rejected pushes there and nowhere else.
	sm *serverMetrics

	mu sync.Mutex
	// sincePull counts each worker's pushes since its last pull: the
	// worker protocol is pull-compute-push, so more than DefaultFloodSlack
	// is a flood.
	sincePull []int
	strikes   []int
	evicted   []int
	// registered and pushed mark the slots that have registered and that
	// have pushed: a registered slot's first push is cold (checkPush).
	registered []bool
	pushed     []bool
	// norms is the trailing ring of accepted push norms; median over it is
	// the baseline the outlier check compares against. Flagged pushes are
	// excluded so an attacker cannot drag the baseline toward its own
	// magnitude.
	norms []float64
	next  int
	sort  []float64
}

// newGuard builds the guard, counting onto sm; nil when the guard is
// disabled.
func newGuard(cfg GuardConfig, workers int, sm *serverMetrics) *guard {
	if !cfg.Enabled {
		return nil
	}
	return &guard{
		sm:         sm,
		sincePull:  make([]int, workers),
		strikes:    make([]int, workers),
		registered: make([]bool, workers),
		pushed:     make([]bool, workers),
	}
}

// observeRegister notes that the worker's slot has registered.
func (g *guard) observeRegister(worker int) {
	g.mu.Lock()
	g.registered[worker] = true
	g.mu.Unlock()
}

// observePull resets the worker's flood count.
func (g *guard) observePull(worker int) {
	g.mu.Lock()
	g.sincePull[worker] = 0
	g.mu.Unlock()
}

// checkPush screens one decoded push: claimedBase against the highest
// version the server ever produced, the worker's pushes since its last
// pull against DefaultFloodSlack, and the gradient's total L2 norm against
// the trailing median. grads may be nil (decode failure — already an error
// path, nothing to screen beyond the clocks).
//
// The first push a slot makes after registering is cold: its norm is not
// judged and does not enter the baseline. That push is computed on the
// weights the worker registered at, and under ASP its cold first pass can
// land tens of versions late, after the others' gradients have shrunk with
// convergence, so an honest first gradient looks like an outlier. The
// exemption is one push per slot per run, whatever the worker claims or
// however often it registers; a NaN/Inf or a lying clock is still flagged.
func (g *guard) checkPush(worker int, claimedBase, serverVersion int64, grads []*tensor.Tensor) guardVerdict {
	norm, normOK := pushNorm(grads)

	g.mu.Lock()
	defer g.mu.Unlock()
	flags := 0
	if claimedBase > serverVersion {
		// A lying clock: no worker can hold a version the server never
		// produced. An honest race only ever makes a claim staler.
		flags++
	}
	g.sincePull[worker]++
	if g.sincePull[worker] > DefaultFloodSlack {
		flags++
	}
	cold := g.registered[worker] && !g.pushed[worker]
	g.pushed[worker] = true
	if grads != nil {
		if !normOK {
			// NaN/Inf gradient: always anomalous, no baseline needed.
			flags++
		} else if med, ok := g.medianNorm(); ok && !cold && norm > DefaultNormFactor*med && norm > 0 {
			flags++
		}
	}
	if flags == 0 {
		if normOK && grads != nil && !cold {
			g.recordNorm(norm)
		}
		return guardVerdict{}
	}
	// Every flagged push is rejected, the one that evicts included.
	g.strikes[worker] += flags
	g.sm.guardFlags.Add(uint64(flags))
	g.sm.droppedGuard.Inc()
	v := guardVerdict{drop: true}
	if g.strikes[worker] >= DefaultMaxStrikes {
		v.evict = true
		g.evicted = append(g.evicted, worker)
		g.sm.guardEvictions.Inc()
	}
	return v
}

// stats snapshots the guard's accounting.
func (g *guard) stats() GuardStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	// Clock flags and norm flags both land in strikes, the count the
	// eviction rule acts on.
	st := GuardStats{
		Flags:         make([]int, len(g.strikes)),
		Evicted:       append([]int(nil), g.evicted...),
		DroppedPushes: int(g.sm.droppedGuard.Value()),
	}
	copy(st.Flags, g.strikes)
	return st
}

// recordNorm appends one accepted push norm to the trailing ring.
func (g *guard) recordNorm(n float64) {
	if len(g.norms) < normHistory {
		g.norms = append(g.norms, n)
		return
	}
	g.norms[g.next] = n
	g.next = (g.next + 1) % normHistory
}

// medianNorm returns the median of the trailing accepted push norms. It
// needs a few samples before it claims a baseline, so the first pushes of a
// run are never flagged by magnitude alone.
func (g *guard) medianNorm() (float64, bool) {
	if len(g.norms) < 4 {
		return 0, false
	}
	g.sort = append(g.sort[:0], g.norms...)
	sort.Float64s(g.sort)
	return g.sort[len(g.sort)/2], true
}

// pushNorm computes the total L2 norm over all of a push's tensors,
// reporting false when any coordinate is NaN or Inf.
func pushNorm(grads []*tensor.Tensor) (float64, bool) {
	sum := 0.0
	for _, g := range grads {
		for _, v := range g.Data() {
			sum += float64(v) * float64(v)
		}
	}
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		return 0, false
	}
	return math.Sqrt(sum), true
}

// String renders the configuration for logs.
func (c GuardConfig) String() string {
	if !c.Enabled {
		return "off"
	}
	return fmt.Sprintf("norm>%gx,strikes=%d,flood>%d", DefaultNormFactor, DefaultMaxStrikes, DefaultFloodSlack)
}
