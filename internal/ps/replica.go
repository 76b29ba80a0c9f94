package ps

import (
	"errors"
	"fmt"
	"time"

	"dssp/internal/obs"
	"dssp/internal/transport"
)

// errPrimaryDead reports that the replication primary stayed unreachable for
// longer than the grace: the backup should now request promotion instead of
// retrying forever against a corpse.
var errPrimaryDead = errors.New("ps: replication primary is unreachable")

// replicate streams the primary's published weights into store until stop
// closes (returns nil) or the primary stays unreachable past grace (returns
// errPrimaryDead — the backup's cue to request promotion). dial opens a fresh
// connection to the primary, on start and after every connection failure;
// interval is the poll cadence (a backup's is replicateEvery). reg carries the
// dssp_cluster_replica_* series.
//
// The stream is a replica session on the primary: a read-only registration
// under a negative session key, pulling on a fixed cadence, each pull naming
// the version it holds so that an unchanged primary costs no payload. Each
// pull that advances the primary's version is installed wholesale
// (Store.installReplica, which takes only a newer version); what the stream
// does NOT carry — optimizer state, and exact bit-patterns under a lossy pull
// codec — is documented in DESIGN.md §10. A backup's session names the
// backup's map entry (self), so that its primary waits for it at the end of
// the run.
//
// Once ended closes — the coordinator reported the run complete — the next
// pull is the last: the primary gates it on every update it has ticketed,
// which by then is the whole run, so the store ends at the primary's final
// version. replicate installs it, hangs up, which is what the primary waits
// for (Server.awaitBackups), and returns nil. A primary it cannot reach
// once ended has closed has ended its run too, and replicate returns nil.
func replicate(dial func() (transport.Conn, error), store *Store, interval, grace time.Duration, reg *obs.Registry, stop, ended <-chan struct{}, self []transport.ServerEntry) error {
	installs := reg.Counter("dssp_cluster_replica_installs_total",
		"Weight snapshots installed from the primary's replication stream.")
	unchanged := reg.Counter("dssp_cluster_replica_unchanged_total",
		"Replication polls that found the primary's version unchanged.")
	version := reg.Gauge("dssp_cluster_replica_version",
		"Store version of the last installed replication snapshot.")
	behind := reg.Gauge("dssp_cluster_replica_behind",
		"Versions the last poll saw the primary ahead of the backup (pre-install).")

	lastContact := time.Now()
	installed := store.Version()
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		// A replica session adopts the primary's codec, so the stream carries
		// whatever precision the primary's workers see on their own pulls.
		var client *Client
		conn, err := dial()
		if err == nil {
			client, err = openReplicaAs(conn, self)
		}
		if err != nil {
			if isClosed(ended) {
				return nil
			}
			if time.Since(lastContact) > grace {
				return errPrimaryDead
			}
			if !sleepOrStop(interval, stop, ended) {
				return nil
			}
			continue
		}
		lastContact = time.Now()
		for {
			final := isClosed(ended)
			params, v, err := client.Pull()
			if err != nil {
				_ = client.Close()
				break // reconnect (or give up) via the outer loop
			}
			lastContact = time.Now()
			behind.Set(float64(v - installed))
			if v == installed {
				unchanged.Inc()
			} else if err := store.installReplica(params, v); err != nil {
				// A failed install (shape drift, version regression) is a
				// wiring bug, not a liveness problem; surface it.
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
		if time.Since(lastContact) > grace {
			return errPrimaryDead
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
