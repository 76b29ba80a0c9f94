package dssp

import (
	"fmt"

	"dssp/internal/obs"
	"dssp/internal/ps"
	"dssp/internal/transport"
)

// RelayConfig configures an aggregation-relay process (cmd/psserver -role
// relay, DESIGN.md §11): a middle tier that accepts ordinary worker sessions,
// sums the gradients of up to Fanout workers into one partial, and forwards a
// single ×k-weighted push to the parent server — cutting the root's push
// ingress from O(workers) to O(workers/fanout) while the paradigm still sees
// every logical push. It is ps.RelayConfig, where each field is documented.
type RelayConfig = ps.RelayConfig

// RelayServer is a running TCP aggregation relay.
type RelayServer struct {
	inner    *ps.Relay
	listener transport.Listener
	admin    *obs.AdminServer
}

// Addr returns the child-facing address the relay is listening on.
func (r *RelayServer) Addr() string { return r.listener.Addr() }

// MetricsAddr returns the admin HTTP listener's address, or "" when
// RelayConfig.MetricsAddr was unset.
func (r *RelayServer) MetricsAddr() string { return r.admin.Addr() }

// Done returns a channel closed when the relay has stopped — Stop was
// called, or its trunk to the parent died (workers then re-parent via a
// fresh layout fetch).
func (r *RelayServer) Done() <-chan struct{} { return r.inner.Done() }

// Err returns the failure that stopped the relay, if any.
func (r *RelayServer) Err() error { return r.inner.Err() }

// Stats snapshots the relay's traffic accounting: child pushes and ingress
// bytes in, forwarded partials and bytes out.
func (r *RelayServer) Stats() ps.RelayStats { return r.inner.Stats() }

// Registry returns the relay's observability registry.
func (r *RelayServer) Registry() *obs.Registry { return r.inner.Registry() }

// Stop shuts the relay down. Its children's connections close immediately,
// so they reconnect and re-parent instead of hanging.
func (r *RelayServer) Stop() {
	r.inner.Stop()
	_ = r.listener.Close()
	_ = r.admin.Close()
}

// ServeRelay starts an aggregation relay: it registers a trunk with the
// parent server, publishes its child-facing address in the root's tree
// layout, and serves workers until stopped. Returns immediately.
func ServeRelay(cfg RelayConfig) (*RelayServer, error) {
	if cfg.Parent == "" {
		return nil, fmt.Errorf("dssp: relay needs a parent server address")
	}
	reg := newRegistry()
	meter := transport.NewMetrics(reg)
	listener, err := transport.ListenWireMetered(cfg.Addr, transport.WireBinary, meter)
	if err != nil {
		return nil, err
	}
	if cfg.Advertise == "" {
		cfg.Advertise = listener.Addr()
	}
	relay, err := ps.NewRelay(cfg, func(addr string) (transport.Conn, error) {
		return transport.DialWireMetered(addr, transport.WireBinary, meter)
	}, reg)
	if err != nil {
		_ = listener.Close()
		return nil, err
	}
	var admin *obs.AdminServer
	if cfg.MetricsAddr != "" {
		admin, err = obs.ServeAdmin(cfg.MetricsAddr, reg, nil, nil)
		if err != nil {
			relay.Stop()
			_ = listener.Close()
			return nil, fmt.Errorf("dssp: relay metrics listener: %w", err)
		}
	}
	go func() { _ = relay.Serve(listener) }()
	return &RelayServer{inner: relay, listener: listener, admin: admin}, nil
}
