package dssp

import (
	"fmt"

	"dssp/internal/ps"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// Server roles for ClusterOptions.Role (the -role flag on cmd/psserver); the
// empty string is a flat server. What each role is made of, and which options
// it acts on, is internal/ps's to say (ps.Start).
const (
	RoleCoordinator = ps.RoleCoordinator
	RoleData        = ps.RoleData
	RoleBackup      = ps.RoleBackup
)

// ClusterOptions places a server in a server group (ServerConfig.Cluster):
// its role, the coordinator it announces to, the group size and its slot,
// the address it advertises and, for a backup, its primary and replication
// cadence. The zero value is a flat server.
type ClusterOptions = ps.ClusterConfig

// Failed returns a channel closed when a fatal cluster condition ended this
// server's usefulness — a data server or backup losing its coordinator, or a
// backup unable to complete promotion. Standalone servers never close it.
// FailureErr reports the cause after it closes.
func (s *Server) Failed() <-chan struct{} { return s.inner.Failed() }

// FailureErr returns the error that closed Failed, or nil.
func (s *Server) FailureErr() error { return s.inner.FailureErr() }

// Promoted reports whether this backup completed promotion to shard owner.
func (s *Server) Promoted() bool { return s.inner.Promoted() }

// ClusterMap returns a coordinator's current map entries and map version
// (nil, 0 on every other role).
func (s *Server) ClusterMap() ([]transport.ServerEntry, int64) { return s.inner.ClusterMap() }

// clusterSnapshot assembles the group's full weight vector by reading every
// data server through a read-only replica session — registration-free as far
// as the paradigm is concerned, so evaluation never perturbs synchronization.
func clusterSnapshot(coordAddr string) ([]*tensor.Tensor, error) {
	m, err := ps.FetchClusterMap(transport.Dial, coordAddr)
	if err != nil {
		return nil, err
	}
	if len(m.Servers) == 0 {
		return nil, fmt.Errorf("dssp: cluster map is empty")
	}
	out := make([]*tensor.Tensor, m.Total)
	for _, e := range m.Servers {
		conn, err := transport.Dial(e.Addr)
		if err != nil {
			return nil, fmt.Errorf("dssp: snapshot dial %s: %w", e.Addr, err)
		}
		client, err := ps.OpenReplica(conn)
		if err != nil {
			return nil, fmt.Errorf("dssp: snapshot session at %s: %w", e.Addr, err)
		}
		params, _, err := client.Pull()
		if err == nil && (e.TensorHi > len(out) || len(params) != e.TensorHi-e.TensorLo) {
			err = fmt.Errorf("%d tensors for range [%d, %d)", len(params), e.TensorLo, e.TensorHi)
		}
		// The pulled tensors are on lease from the client, which Close ends.
		for i := 0; err == nil && i < len(params); i++ {
			out[e.TensorLo+i] = params[i].Clone()
		}
		client.Close()
		if err != nil {
			return nil, fmt.Errorf("dssp: snapshot pull from %s: %w", e.Addr, err)
		}
	}
	for i, p := range out {
		if p == nil {
			return nil, fmt.Errorf("dssp: cluster map covers no owner for tensor %d", i)
		}
	}
	return out, nil
}
