package ps

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// dialLog wraps a dialer and records every address dialed, which is how the
// Connect tests tell where a route actually went.
type dialLog struct {
	dial func(addr string) (transport.Conn, error)
	mu   sync.Mutex
	seen []string
}

func (d *dialLog) Dial(addr string) (transport.Conn, error) {
	d.mu.Lock()
	d.seen = append(d.seen, addr)
	d.mu.Unlock()
	return d.dial(addr)
}

// take returns and clears the addresses dialed so far.
func (d *dialLog) take() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := strings.Join(d.seen, " ")
	d.seen = nil
	return out
}

// pullLog records the Pull frames a worker sends and the Weights frames it
// receives, on every connection, in the order they happen.
type pullLog struct {
	mu     sync.Mutex
	frames []string
}

func (l *pullLog) add(typ transport.MessageType) {
	if typ == transport.MsgPull || typ == transport.MsgWeights {
		l.mu.Lock()
		l.frames = append(l.frames, typ.String())
		l.mu.Unlock()
	}
}

// take returns and clears the frames recorded so far.
func (l *pullLog) take() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := strings.Join(l.frames, " ")
	l.frames = nil
	return out
}

// pullLogConn is a connection that records its Pull and Weights frames.
type pullLogConn struct {
	transport.Conn
	log *pullLog
}

func (c *pullLogConn) Send(m transport.Message) error {
	c.log.add(m.Type)
	return c.Conn.Send(m)
}

func (c *pullLogConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.log.add(m.Type)
	}
	return m, err
}

// pushOnce drives one iteration through c: proof the client is registered.
func pushOnce(t *testing.T, c WorkerClient, grads []*tensor.Tensor, it int) {
	t.Helper()
	_, v, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Push(grads, nil, v, it, false); err != nil {
		t.Fatal(err)
	}
}

// TestConnectFlat: a flat route dials the server and registers; a rejoin
// registers as one; a shard-count expectation the server does not meet fails
// the connect and leaves no session behind.
func TestConnectFlat(t *testing.T) {
	const size = 5
	st, err := NewStoreSharded([]*tensor.Tensor{tensor.New(size), tensor.New(size)}, optimizer.NewSGD(0.1), 2)
	if err != nil {
		t.Fatal(err)
	}
	h := newRelayHarness(t, core.MustNewASP(2), st, 0, 0, Options{Elastic: true})
	log := &dialLog{dial: h.dial}
	route := Route{Dial: log.Dial, Addr: h.rootListener.Addr(), Worker: 1, Shards: 2}
	grads := append(testGrads(1, 0, size), testGrads(2, 0, size)...)

	c, err := Connect(route, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*ClusterClient); !ok {
		t.Fatalf("flat route returned a %T", c)
	}
	pushOnce(t, c, grads, 0)
	c.Close()
	if got := log.take(); got != route.Addr {
		t.Fatalf("flat connect dialed %q, want the server once", got)
	}

	c, err = Connect(route, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pushOnce(t, c, grads, 1)
	if h.server.Rejoins() != 1 {
		t.Fatalf("server counted %d rejoins after a rejoin connect, want 1", h.server.Rejoins())
	}

	route.Worker, route.Shards = 0, 3
	if _, err := Connect(route, false, 0); err == nil || !strings.Contains(err.Error(), "expects 3 parameter-store shards, server runs 2") {
		t.Fatalf("shard expectation mismatch returned %v", err)
	}
}

// TestConnectTree: a tree route fetches the layout from the root and dials
// the covering relay; a worker no relay covers lands on the root; and after
// the relay dies a rejoin re-fetches the layout and re-parents at the root.
func TestConnectTree(t *testing.T) {
	const size = 5
	st, err := NewStoreSharded([]*tensor.Tensor{tensor.New(size)}, optimizer.NewSGD(0.1), 1)
	if err != nil {
		t.Fatal(err)
	}
	// One fanout-2 relay under three workers: it covers 0 and 1, not 2.
	h := newRelayHarness(t, core.MustNewASP(3), st, 1, 2, Options{Elastic: true})
	root, relay := h.rootListener.Addr(), h.listeners[0].Addr()
	log := &dialLog{dial: h.dial}
	route := Route{Dial: log.Dial, Addr: root, Topology: Tree}

	covered, err := Connect(route, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer covered.Close()
	pushOnce(t, covered, testGrads(0, 0, size), 0)
	if got := log.take(); got != root+" "+relay {
		t.Fatalf("covered worker dialed %q, want layout fetch then relay", got)
	}

	route.Worker = 2
	direct, err := Connect(route, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	pushOnce(t, direct, testGrads(2, 0, size), 0)
	if got := log.take(); got != root+" "+root {
		t.Fatalf("uncovered worker dialed %q, want layout fetch then root", got)
	}

	h.relays[0].Stop()
	if _, _, err := covered.Pull(); err == nil {
		t.Fatal("pull through a stopped relay succeeded")
	}
	// The root drops the dead relay from the layout when its trunk closes;
	// Retry rides out the moment in between, re-fetching on every attempt.
	route.Worker, route.Retry = 0, 5*time.Second
	rejoined, err := Connect(route, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rejoined.Close()
	pushOnce(t, rejoined, testGrads(0, 1, size), 1)
	if got := log.take(); !strings.HasSuffix(got, root+" "+root) {
		t.Fatalf("orphaned worker dialed %q, want it to end on a fresh layout fetch then root", got)
	}
}

// TestConnectGroup: a group route is the same ClusterClient as every other
// route; a rejoin re-enters the coordinator as one (and the data servers as a
// fresh registration) and trains on; and a shard expectation is checked
// against the group-wide count.
func TestConnectGroup(t *testing.T) {
	initial := seededModel(3)
	g := startTestGroup(t, 1, 2, core.MustNewASP(1), initial)
	route := Route{Dial: g.dial, Addr: g.coordAddr, Topology: Group, Shards: g.globalShards}

	c, err := Connect(route, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*ClusterClient); !ok {
		t.Fatalf("group route returned a %T", c)
	}
	pushOnce(t, c, scheduledGrads(0, 0), 0)
	c.Close()

	rejoined, err := Connect(route, true, 1)
	if err != nil {
		t.Fatalf("rejoin on a group route: %v", err)
	}
	defer rejoined.Close()
	pushOnce(t, rejoined, scheduledGrads(0, 1), 1)
	if n := g.coord.Rejoins(); n != 1 {
		t.Fatalf("coordinator counted %d rejoins after a rejoin connect, want 1", n)
	}
	if n := g.coord.Pushes(); n != 2 {
		t.Fatalf("coordinator counted %d pushes, want one per connect", n)
	}
	route.Shards++
	if _, err := Connect(route, false, 0); err == nil || !strings.Contains(err.Error(), "parameter-store shards") {
		t.Fatalf("group shard expectation mismatch returned %v", err)
	}
}

// TestRetry pins the one backoff loop: a permanent error returns at once, a
// zero budget is one attempt, the budget bounds the retrying, and the backoff
// is capped (uncapped doubling from 1 ms would fit at most 9 attempts into
// 200 ms; capped at 2 ms there are about a hundred).
func TestRetry(t *testing.T) {
	transient, permanent := errors.New("transient"), errors.New("permanent")
	isPermanent := func(err error) bool { return err == permanent }

	calls := 0
	err := retry(time.Minute, time.Millisecond, time.Second, isPermanent, func() error {
		if calls++; calls == 3 {
			return permanent
		}
		return transient
	})
	if err != permanent || calls != 3 {
		t.Fatalf("permanent error: %d calls, err %v; want it returned on the 3rd", calls, err)
	}

	calls = 0
	if err := retry(0, time.Millisecond, time.Second, isPermanent, func() error { calls++; return transient }); err != transient || calls != 1 {
		t.Fatalf("zero budget: %d calls, err %v; want one attempt", calls, err)
	}

	calls = 0
	start := time.Now()
	err = retry(200*time.Millisecond, time.Millisecond, 2*time.Millisecond, isPermanent, func() error { calls++; return transient })
	if elapsed := time.Since(start); err != transient || elapsed < 200*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("budget: returned %v after %v, want the last error once 200ms had passed", err, elapsed)
	}
	if calls <= 20 {
		t.Fatalf("backoff cap: %d attempts in 200ms at a 2ms cap", calls)
	}

	calls = 0
	if err := retry(time.Minute, time.Millisecond, time.Second, isPermanent, func() error {
		if calls++; calls < 4 {
			return transient
		}
		return nil
	}); err != nil || calls != 4 {
		t.Fatalf("success after transients: %d calls, err %v", calls, err)
	}
}

// TestConnectFramesPerIteration pins what one iteration through Connect puts
// on the wire, counted by the transport meter on the worker's own dials: on a
// flat server and through a relay, one push and one pull on the one link; on
// a group, a fragment push and a pull per data server plus the coordinator's
// ticket push. Every pull is answered with one Weights frame, though each
// store runs two shards. Every row but plain flat pushes with next set, and
// only a flat server's own session takes the offer: its worker sends no pull
// at all, the Weights frame following the OK unasked. A relay — reached by a
// tree route or by a flat one — and a group offer none. A group worker sends
// both data servers' Pulls before it receives either Weights frame. Traffic
// counts each link once too: one gradient's payload pushed and one model's
// pulled per iteration, on every route.
func TestConnectFramesPerIteration(t *testing.T) {
	initial := []*tensor.Tensor{tensor.New(96, 64), tensor.New(33), tensor.New(40, 30), tensor.New(2048)}
	const iters = 4
	twoTrips := map[string]float64{"sent Push": 1, "recv OK": 1, "sent Pull": 1, "recv Weights": 1}
	for _, tc := range []struct {
		name, topo string
		// next is the pushes' WorkerClient.Push argument.
		next bool
		// want is frames per iteration by direction and type; order is an
		// iteration's Pull and Weights frames in the order the worker sent
		// and received them.
		want  map[string]float64
		order string
	}{
		{"flat", "flat", false, twoTrips, "Pull Weights"},
		{"flat, prefetching", "flat", true, map[string]float64{"sent Push": 1, "recv OK": 1, "sent Pull": 0, "recv Weights": 1}, "Weights"},
		{"tree", "tree", true, twoTrips, "Pull Weights"},
		{"flat route at a relay", "relay", true, twoTrips, "Pull Weights"},
		{"group", "group", true, map[string]float64{"sent Push": 3, "recv OK": 3, "sent Pull": 2, "recv Weights": 2}, "Pull Pull Weights Weights"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var top leaseTopology
			if tc.topo == "relay" {
				top = startLeaseTopology(t, "tree", true, true, 1, initial)
				top.route.Topology, top.route.Addr = Flat, "relay"
			} else {
				top = startLeaseTopology(t, tc.topo, true, true, 1, initial)
			}
			seen := &pullLog{}
			dial := top.route.Dial
			top.route.Dial = func(addr string) (transport.Conn, error) {
				conn, err := dial(addr)
				if err != nil {
					return nil, err
				}
				return &pullLogConn{Conn: conn, log: seen}, nil
			}
			c, err := Connect(top.route, false, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			grads := make([]*tensor.Tensor, len(initial))
			var payload int64
			for i, p := range initial {
				grads[i] = tensor.Full(0.5, p.Shape()...)
				payload += int64(4*p.Size() + 4*p.Dims() + 8)
			}
			iterate := func(it int) {
				_, v, err := c.Pull()
				if err == nil {
					err = c.Push(grads, nil, v, it, tc.next)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			// The connect and the first iteration are set-up; the meter's
			// count from there on is the steady state.
			iterate(0)
			before := top.workerReg.Snapshot()
			pushed0, pulled0 := c.Traffic()
			for it := 1; it <= iters; it++ {
				seen.take()
				iterate(it)
				if got := seen.take(); got != tc.order {
					t.Errorf("iteration %d's Pull and Weights frames went %q, want %q", it, got, tc.order)
				}
			}
			after := top.workerReg.Snapshot()
			if pushed, pulled := c.Traffic(); pushed-pushed0 != iters*payload || pulled-pulled0 != iters*payload {
				t.Errorf("Traffic moved %d pushed / %d pulled over %d iterations, want %d each",
					pushed-pushed0, pulled-pulled0, iters, iters*payload)
			}
			for _, dir := range []string{"sent", "recv"} {
				for _, typ := range []string{"Push", "OK", "Pull", "Weights"} {
					series := fmt.Sprintf("dssp_transport_frames_total{dir=%q,type=%q}", dir, typ)
					got := (after[series] - before[series]) / iters
					if want := tc.want[dir+" "+typ]; got != want {
						t.Errorf("%s %s frames per iteration: %v, want %v", dir, typ, got, want)
					}
				}
			}
		})
	}
}
