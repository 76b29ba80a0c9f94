package trainer

import (
	"fmt"

	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/ps"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// serving is one way of standing the parameter-server side up — a single
// in-process server, or a coordinator plus ClusterServers data servers. The
// run body (worker fan-out, evaluation loop, result accounting) is identical
// either way; only these hooks differ.
type serving struct {
	// route is how a worker reaches the topology; ps.Connect turns it, with a
	// worker id filled in, into a registered client. net is what it dials on.
	route ps.Route
	net   chanNet
	// snapshot returns the assembled global weights and their version (the
	// minimum applied version across data servers in cluster mode).
	snapshot func() ([]*tensor.Tensor, int64)
	// version is the snapshot version alone, cheap enough for the eval poll.
	version func() int64
	// setLR applies a scheduled learning-rate change to every store.
	setLR func(lr float64)
	// policyServer is the server whose policy layer runs the paradigm — the
	// single server, or the cluster coordinator. Result statistics
	// (pushes, drops, staleness, waits, guard, metrics, traces) read from it.
	policyServer *ps.Server
	// servers is every server of the topology, the policy server first.
	servers []*ps.Server
	// relays is the aggregation tier, when the topology has one.
	relays []*ps.Relay
	// stop tears the topology down in dependency order.
	stop func()
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

// chanNet is the channel-transport twin of TCP dialing: the topology's
// in-process listeners, keyed by the address each advertises.
type chanNet map[string]*transport.ChanListener

// listen adds a listener to the net.
func (n chanNet) listen() *transport.ChanListener {
	l := transport.NewChanListener()
	n[l.Addr()] = l
	return l
}

// dial connects to the listener advertising addr.
func (n chanNet) dial(addr string) (transport.Conn, error) {
	l := n[addr]
	if l == nil {
		return nil, fmt.Errorf("trainer: no server at %s", addr)
	}
	return l.Dial()
}

// close closes every listener.
func (n chanNet) close() {
	for _, l := range n {
		l.Close()
	}
}

// buildStandalone is the classic topology: one server, one sharded store.
func buildStandalone(cfg Config, policy core.Policy, params []*tensor.Tensor) (*serving, error) {
	opt := optimizer.NewSGDMomentum(cfg.LearningRate, cfg.Momentum, cfg.WeightDecay)
	store, err := ps.NewStoreSharded(params, opt, cfg.Shards)
	if err != nil {
		return nil, err
	}
	server, err := ps.NewServer(ps.ServerConfig{
		Workers: cfg.Workers,
		Policy:  policy,
		Store:   store,
		Options: cfg.Options,
		Metrics: cfg.Metrics,
		Trace:   cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	net := chanNet{}
	listener := net.listen()
	listener.SetMeter(transport.NewMetrics(server.Registry()))
	go func() { _ = server.Serve(listener) }()
	return &serving{
		route:        cfg.route(net, listener.Addr(), ps.Flat),
		net:          net,
		snapshot:     store.Snapshot,
		version:      store.Version,
		setLR:        store.SetLearningRate,
		policyServer: server,
		servers:      []*ps.Server{server},
		stop: func() {
			server.Stop()
			net.close()
		},
	}, nil
}

// route is how cfg's workers reach a topology rooted at addr on net.
func (cfg Config) route(net chanNet, addr string, topology ps.Topology) ps.Route {
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
	base, err := buildStandalone(cfg, policy, params)
	if err != nil {
		return nil, err
	}
	rootStop := base.stop
	base.stop = func() {
		for _, r := range base.relays {
			r.Stop()
		}
		rootStop()
	}
	for i := 0; i < (cfg.Workers+cfg.Fanout-1)/cfg.Fanout; i++ {
		l := base.net.listen()
		relay, err := ps.NewRelay(ps.RelayConfig{
			Parent:           base.route.Addr,
			Fanout:           cfg.Fanout,
			Advertise:        l.Addr(),
			Compression:      cfg.Compression,
			HeartbeatTimeout: cfg.HeartbeatTimeout,
		}, base.net.dial, nil)
		if err != nil {
			base.stop()
			return nil, fmt.Errorf("trainer: relay %d: %w", i, err)
		}
		base.relays = append(base.relays, relay)
		go func() { _ = relay.Serve(l) }()
	}
	base.route.Topology = ps.Tree
	return base, nil
}

// buildCluster is the server-group topology: cfg.ClusterServers data servers
// each own a contiguous shard range of the model behind local ASP policies
// (a fragment's OK means "applied"), and one coordinator runs the real
// paradigm policy over metadata-only pushes — the single serialization point
// conf_icdcs_ZhaoALC19's staleness bounds are defined against. What each role
// is made of is ps.ServerConfig.AsGroupMember's business.
func buildCluster(cfg Config, policy core.Policy, params []*tensor.Tensor) (*serving, error) {
	layout, globalShards, err := ps.GroupLayout(ps.TensorSizes(params), cfg.Shards, cfg.ClusterServers)
	if err != nil {
		return nil, fmt.Errorf("trainer: cluster layout: %w", err)
	}
	opt := optimizer.NewSGDMomentum(cfg.LearningRate, cfg.Momentum, cfg.WeightDecay)
	net := chanNet{}
	var servers []*ps.Server
	var stores []*ps.Store
	stopAll := func() {
		for _, s := range servers {
			s.Stop()
		}
		net.close()
	}
	// start stands one group member up on its own listener. Only the
	// coordinator (own == nil) meters its transport: it is the policy server
	// whose registry the run reports.
	start := func(scfg ps.ServerConfig, own *ps.ShardAssignment) (string, error) {
		scfg, err := scfg.AsGroupMember(params, opt, globalShards, own)
		if err != nil {
			return "", err
		}
		srv, err := ps.NewServer(scfg)
		if err != nil {
			return "", err
		}
		l := net.listen()
		if own == nil {
			l.SetMeter(transport.NewMetrics(srv.Registry()))
		} else {
			stores = append(stores, scfg.Store)
		}
		go func() { _ = srv.Serve(l) }()
		servers = append(servers, srv)
		return l.Addr(), nil
	}
	coordAddr, err := start(ps.ServerConfig{
		Workers: cfg.Workers,
		Policy:  policy,
		Options: ps.Options{Elastic: cfg.Elastic, HeartbeatTimeout: cfg.HeartbeatTimeout},
		Metrics: cfg.Metrics,
		Trace:   cfg.Trace,
	}, nil)
	if err != nil {
		return nil, err
	}
	for i := range layout {
		// Data-server options: the byte-path knobs (compression, aggregation,
		// guard) act where the gradients land. Checkpointing is deliberately
		// dropped — per-range stores would race over one directory — and
		// elasticity is the coordinator's call.
		addr, err := start(ps.ServerConfig{
			Workers: cfg.Workers,
			Options: ps.Options{Compression: cfg.Compression, Aggregator: cfg.Aggregator, Guard: cfg.Guard},
		}, &layout[i])
		if err == nil {
			var conn transport.Conn
			if conn, err = net.dial(coordAddr); err == nil {
				err = ps.SubmitEntry(conn, transport.MsgServerAnnounce, layout[i].Entry(addr), false)
				conn.Close()
			}
		}
		if err != nil {
			stopAll()
			return nil, fmt.Errorf("trainer: data server %d: %w", i, err)
		}
	}

	minVersion := func() int64 {
		min := stores[0].Version()
		for _, st := range stores[1:] {
			if v := st.Version(); v < min {
				min = v
			}
		}
		return min
	}
	snapshot := func() ([]*tensor.Tensor, int64) {
		out := make([]*tensor.Tensor, 0, len(params))
		version := int64(-1)
		for _, st := range stores {
			part, v := st.Snapshot()
			out = append(out, part...)
			if version < 0 || v < version {
				version = v
			}
		}
		return out, version
	}
	return &serving{
		route:    cfg.route(net, coordAddr, ps.Group),
		snapshot: snapshot,
		version:  minVersion,
		setLR: func(lr float64) {
			for _, st := range stores {
				st.SetLearningRate(lr)
			}
		},
		policyServer: servers[0],
		servers:      servers,
		stop:         stopAll,
	}, nil
}
