package trainer

import (
	"fmt"
	"sync"
	"time"

	"dssp/internal/core"
	"dssp/internal/obs"
	"dssp/internal/optimizer"
	"dssp/internal/ps"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// serving is one way of standing the parameter-server side up — a single
// in-process server, a coordinator plus ClusterServers data servers, or a
// server fronted by relays. The run body (worker fan-out, evaluation loop,
// result accounting) is identical either way. Every server is stood up by
// ps.Start, as psserver's are.
type serving struct {
	// route is how a worker reaches the topology; ps.Connect turns it, with a
	// worker id filled in, into a registered client. net is what it dials on.
	route ps.Route
	net   *chanNet
	// policyServer is the server whose policy layer runs the paradigm — the
	// single server, or the cluster coordinator. Result statistics
	// (pushes, drops, staleness, waits, guard, metrics, traces) read from it.
	policyServer *ps.Server
	// servers is every server of the topology, the policy server first.
	servers []*ps.Server
	// stores hold the model in tensor order: the single server's, or each
	// data server's range.
	stores []*ps.Store
	// relays is the aggregation tier, when the topology has one.
	relays []*ps.Relay
}

// buildServing stands up the configured topology. ClusterServers <= 1 is the
// classic single server; otherwise a coordinator owns the paradigm policy
// while ClusterServers data servers own contiguous shard ranges of the store
// (DESIGN.md §10), all in-process over channel transports.
func buildServing(cfg Config, policy core.Policy, params []*tensor.Tensor) (*serving, error) {
	if cfg.Fanout >= 2 {
		if cfg.ClusterServers >= 2 {
			return nil, fmt.Errorf("trainer: Fanout and ClusterServers are mutually exclusive")
		}
		return buildTree(cfg, policy, params)
	}
	if cfg.ClusterServers <= 1 {
		return buildStandalone(cfg, policy, params)
	}
	return buildCluster(cfg, policy, params)
}

// snapshot returns the assembled global weights and their version: the
// minimum applied version across the stores.
func (s *serving) snapshot() ([]*tensor.Tensor, int64) {
	var out []*tensor.Tensor
	version := int64(-1)
	for _, st := range s.stores {
		part, v := st.Snapshot()
		out = append(out, part...)
		if version < 0 || v < version {
			version = v
		}
	}
	return out, version
}

// version is the snapshot version alone, cheap enough for the eval poll.
func (s *serving) version() int64 {
	min := s.stores[0].Version()
	for _, st := range s.stores[1:] {
		if v := st.Version(); v < min {
			min = v
		}
	}
	return min
}

// failure is the first fatal loss a server of the topology reports
// (ps.Server.Failed), which ends the run as it ends a psserver; nil if none.
func (s *serving) failure() error {
	for _, srv := range s.servers {
		if err := srv.FailureErr(); err != nil {
			return err
		}
	}
	return nil
}

// stop tears the topology down in dependency order: relays, then servers,
// then the listeners. It is safe to call more than once.
func (s *serving) stop() {
	for _, r := range s.relays {
		r.Stop()
	}
	for _, srv := range s.servers {
		srv.Stop()
	}
	s.net.close()
}

// chanNet is the channel-transport twin of TCP dialing: the topology's
// in-process listeners, keyed by the address each advertises. Members dial
// on their own goroutines (a data server's announce stream) while the next
// member is still being added, hence the lock.
type chanNet struct {
	mu sync.Mutex
	ls map[string]*transport.ChanListener
}

// listen adds a listener to the net.
func (n *chanNet) listen() *transport.ChanListener {
	l := transport.NewChanListener()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ls == nil {
		n.ls = make(map[string]*transport.ChanListener)
	}
	n.ls[l.Addr()] = l
	return l
}

// dial connects to the listener advertising addr.
func (n *chanNet) dial(addr string) (transport.Conn, error) {
	n.mu.Lock()
	l := n.ls[addr]
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("trainer: no server at %s", addr)
	}
	return l.Dial()
}

// close closes every listener.
func (n *chanNet) close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.ls {
		l.Close()
	}
}

// start stands one server of the topology up on a fresh listener of s.net
// through ps.Start, with the options its role acts on (ps.Options.ForRole),
// adds it to s and returns its address. The server whose policy runs the
// paradigm — the flat server or the coordinator — carries the run's
// registry and transport meter; a data server keeps its own.
func (s *serving) start(cfg Config, policy core.Policy, params []*tensor.Tensor, role ps.ClusterConfig) (string, error) {
	opts, _ := cfg.Options.ForRole(role.Role)
	scfg := ps.ServerConfig{Workers: cfg.Workers, Policy: policy, Options: opts, Cluster: role}
	l := s.net.listen()
	if role.Role != ps.RoleData {
		if scfg.Metrics = cfg.Metrics; scfg.Metrics == nil {
			scfg.Metrics = obs.NewRegistry()
		}
		l.SetMeter(transport.NewMetrics(scfg.Metrics))
	}
	opt := optimizer.NewSGDMomentum(cfg.LearningRate, cfg.Momentum)
	srv, err := ps.Start(scfg, params, opt, l, s.net.dial)
	if err != nil {
		return "", err
	}
	if s.servers = append(s.servers, srv); role.Role != ps.RoleCoordinator {
		s.stores = append(s.stores, srv.Store())
	}
	return l.Addr(), nil
}

// buildStandalone is the classic topology: one flat server, one sharded
// store.
func buildStandalone(cfg Config, policy core.Policy, params []*tensor.Tensor) (*serving, error) {
	s := &serving{net: &chanNet{}}
	addr, err := s.start(cfg, policy, params, ps.ClusterConfig{})
	if err != nil {
		return nil, err
	}
	s.route, s.policyServer = cfg.route(s.net, addr, ps.Flat), s.servers[0]
	return s, nil
}

// route is how cfg's workers reach a topology rooted at addr on net.
func (cfg Config) route(net *chanNet, addr string, topology ps.Topology) ps.Route {
	return ps.Route{
		Dial:        net.dial,
		Addr:        addr,
		Topology:    topology,
		Compression: cfg.Compression,
	}
}

// buildTree is the aggregation-tree topology (DESIGN.md §11): the classic
// single server at the root, fronted by ceil(Workers/Fanout) in-process
// relays over channel transports. Each relay registers a trunk with the
// root, learns its worker range through the tree layout, and sums its
// children's pushes into one forwarded partial; workers fetch the layout
// from the root at connect time and dial the relay covering them — the
// single-process twin of `psserver -role relay`.
func buildTree(cfg Config, policy core.Policy, params []*tensor.Tensor) (*serving, error) {
	s, err := buildStandalone(cfg, policy, params)
	if err != nil {
		return nil, err
	}
	for i := 0; i < (cfg.Workers+cfg.Fanout-1)/cfg.Fanout; i++ {
		l := s.net.listen()
		relay, err := ps.NewRelay(ps.RelayConfig{
			Parent:           s.route.Addr,
			Fanout:           cfg.Fanout,
			Advertise:        l.Addr(),
			Compression:      cfg.Compression,
			HeartbeatTimeout: cfg.HeartbeatTimeout,
		}, s.net.dial, nil)
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("trainer: relay %d: %w", i, err)
		}
		s.relays = append(s.relays, relay)
		go func() { _ = relay.Serve(l) }()
	}
	s.route.Topology = ps.Tree
	return s, nil
}

// buildCluster is the server-group topology: cfg.ClusterServers data servers
// each own a contiguous shard range of the model behind local ASP policies
// (a fragment's OK means "ticketed", and a pull waits for the applies), and
// one coordinator runs the real paradigm policy over metadata-only pushes —
// the single serialization point conf_icdcs_ZhaoALC19's staleness bounds are
// defined against. The data
// servers announce themselves on the coordinator's parked stream, as
// psserver's do. An in-process group refuses a checkpoint directory, which
// its data servers would share.
func buildCluster(cfg Config, policy core.Policy, params []*tensor.Tensor) (*serving, error) {
	if cfg.Checkpoint != (ps.CheckpointConfig{}) {
		return nil, fmt.Errorf("trainer: an in-process group's data servers would share one checkpoint directory")
	}
	s := &serving{net: &chanNet{}}
	coordAddr, err := s.start(cfg, policy, params, ps.ClusterConfig{Role: ps.RoleCoordinator, Servers: cfg.ClusterServers})
	for i := 0; err == nil && i < cfg.ClusterServers; i++ {
		if _, err = s.start(cfg, nil, params, ps.ClusterConfig{
			Role: ps.RoleData, Coordinator: coordAddr, Servers: cfg.ClusterServers, Index: i}); err != nil {
			err = fmt.Errorf("trainer: data server %d: %w", i, err)
		}
	}
	// Return once every data server is in the map, so the topology a worker
	// meets is the one it will train against.
	for err == nil {
		if entries, _ := s.servers[0].ClusterMap(); len(entries) == cfg.ClusterServers {
			break
		}
		err = s.failure()
		time.Sleep(100 * time.Microsecond)
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	s.route, s.policyServer = cfg.route(s.net, coordAddr, ps.Group), s.servers[0]
	return s, nil
}
