package ps

import (
	"fmt"
	"time"

	"dssp/internal/obs"
	"dssp/internal/transport"
)

// replicate streams the owner's published weights into store until stop
// closes or the run ends (ended), and returns nil then. dial opens a fresh
// connection to the owner, on start and after every connection failure,
// which it retries for as long as it takes: whether the owner is dead is the
// coordinator's to say (handleServerAnnounce), not a dial's. interval is the
// poll cadence (a standby's is replicateEvery). reg carries the
// dssp_cluster_replica_* series.
//
// The stream is a replica session on the owner: a read-only registration
// under a negative session key, pulling on a fixed cadence, each pull naming
// the version it holds so that an unchanged owner costs no payload. Each
// pull that carries a version past the store's is installed wholesale
// (Store.installReplica); one at or behind it — a newly promoted owner that
// had replicated less than this standby — is skipped. What the stream does
// NOT carry — optimizer state, and exact bit-patterns under a lossy pull
// codec — is documented in DESIGN.md §10. A standby's session names the
// standby's map entry (self), so that its owner waits for it at the end of
// the run.
//
// Once ended closes — the coordinator reported the run complete — the next
// pull is the last: the owner gates it on every update it has ticketed,
// which by then is the whole run, so the store ends at the owner's final
// version. replicate installs it, hangs up, which is what the owner waits
// for (Server.awaitBackups), and returns nil. An owner it cannot reach once
// ended has closed has ended its run too.
func replicate(dial func() (transport.Conn, error), store *Store, interval time.Duration, reg *obs.Registry, stop, ended <-chan struct{}, self []transport.ServerEntry) error {
	installs := reg.Counter("dssp_cluster_replica_installs_total",
		"Weight snapshots installed from the primary's replication stream.")
	unchanged := reg.Counter("dssp_cluster_replica_unchanged_total",
		"Replication polls that found the primary's version unchanged.")
	version := reg.Gauge("dssp_cluster_replica_version",
		"Store version of the last installed replication snapshot.")
	behind := reg.Gauge("dssp_cluster_replica_behind",
		"Versions the last poll saw the primary ahead of the backup (pre-install).")

	installed := store.Version()
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		// A replica session adopts the owner's codec, so the stream carries
		// whatever precision the owner's workers see on their own pulls.
		var client *Client
		conn, err := dial()
		if err == nil {
			client, err = openReplicaAs(conn, self)
		}
		if err != nil {
			if isClosed(ended) || !sleepOrStop(interval, stop, ended) {
				return nil
			}
			continue
		}
		for {
			final := isClosed(ended)
			params, v, err := client.Pull()
			if err != nil {
				_ = client.Close()
				break // reconnect via the outer loop
			}
			behind.Set(float64(v - installed))
			if v <= installed {
				unchanged.Inc()
			} else if err := store.installReplica(params, v); err != nil {
				// A failed install (shape drift) is a wiring bug, not a
				// liveness problem; surface it.
				_ = client.Close()
				return fmt.Errorf("ps: replica install at version %d: %w", v, err)
			} else {
				installed = v
				installs.Inc()
				version.Set(float64(v))
			}
			if final || !sleepOrStop(interval, stop, ended) {
				_ = client.Close()
				return nil
			}
		}
	}
}

// sleepOrStop waits d, or until wake closes, returning false if stop closed
// first.
func sleepOrStop(d time.Duration, stop, wake <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
	case <-wake:
	}
	return true
}
