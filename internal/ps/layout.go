package ps

import (
	"errors"
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
// close it afterwards. A flat topology answers with zero entries, and a
// coordinator, which runs no tree, with its cluster map: that is an error
// here.
func FetchTreeLayout(conn transport.Conn) (TreeLayout, error) {
	msg, err := requestMap(conn)
	if err == nil && !msg.Relay {
		err = errors.New("the server is a group coordinator")
	}
	if err != nil {
		return TreeLayout{}, fmt.Errorf("ps: tree layout: %w", err)
	}
	return TreeLayout{Entries: msg.Servers}, nil
}
