package ps

import (
	"fmt"

	"dssp/internal/transport"
)

// TreeLayout is the aggregation-tree topology a client learns from the root
// at registration time (DESIGN.md §11): which relay, if any, fronts each
// worker index. Entries reuse transport.ServerEntry with Addr as the relay's
// child-facing address and [ShardLo, ShardHi) as the worker-index range it
// covers.
type TreeLayout struct {
	// Entries is the live relay set, sorted by covered range.
	Entries []transport.ServerEntry
}

// Covering returns the child-facing address of the relay covering the given
// worker index, or "" when none does — the worker then connects straight to
// the root, exactly as in a flat topology. A relay covering several
// non-contiguous runs appears as several entries with the same Addr.
func (l TreeLayout) Covering(worker int) string {
	for _, e := range l.Entries {
		if worker >= e.ShardLo && worker < e.ShardHi {
			return e.Addr
		}
	}
	return ""
}

// FetchTreeLayout asks the server at the other end of conn for the current
// aggregation-tree layout. The conn is dedicated to this exchange; callers
// close it afterwards. A flat topology answers with zero entries.
func FetchTreeLayout(conn transport.Conn) (TreeLayout, error) {
	if err := conn.Send(transport.Message{Type: transport.MsgClusterMap, Relay: true}); err != nil {
		return TreeLayout{}, fmt.Errorf("ps: tree layout request: %w", err)
	}
	msg, err := conn.Recv()
	if err != nil {
		return TreeLayout{}, fmt.Errorf("ps: tree layout reply: %w", err)
	}
	if msg.Type == transport.MsgError {
		return TreeLayout{}, fmt.Errorf("ps: tree layout: %s", msg.Error)
	}
	if msg.Type != transport.MsgClusterMap || !msg.Relay {
		return TreeLayout{}, fmt.Errorf("ps: tree layout: unexpected reply %v", msg.Type)
	}
	return TreeLayout{Entries: msg.Servers}, nil
}
