package ps

import (
	"errors"
	"fmt"
	"time"

	"dssp/internal/obs"
	"dssp/internal/transport"
)

// ErrPrimaryDead reports that the replication primary stayed unreachable for
// longer than the configured grace: the backup should now request promotion
// instead of retrying forever against a corpse.
var ErrPrimaryDead = errors.New("ps: replication primary is unreachable")

// ReplicatorConfig configures one primary→backup replication stream.
type ReplicatorConfig struct {
	// Dial opens a fresh connection to the primary. Called on start and after
	// every connection failure.
	Dial func() (transport.Conn, error)
	// Store is the backup's standby store the stream lands on (a
	// NewStoreRange twin of the primary's).
	Store *Store
	// Interval is the poll cadence (default 25ms). The gated pull makes an
	// idle poll nearly free: an unchanged primary answers with one
	// payload-free frame.
	Interval time.Duration
	// Grace is how long the primary may stay unreachable before the
	// replicator declares it dead (default 2s).
	Grace time.Duration
	// Metrics, when set, carries the dssp_cluster_replica_* series.
	Metrics *obs.Registry
}

// RunReplicator streams the primary's published weights into cfg.Store until
// stop closes (returns nil) or the primary stays unreachable past the grace
// (returns ErrPrimaryDead — the caller's cue to request promotion).
//
// The stream is a replica session on the primary: a read-only registration
// under a negative session key, pulling on a fixed cadence, each pull naming
// the version it holds so that an unchanged primary costs no payload. Each
// pull that advances the primary's version is installed wholesale
// (Store.Install, which takes only a newer version); what the stream does NOT
// carry — optimizer state, and exact bit-patterns under a lossy pull codec —
// is documented in DESIGN.md §10.
func RunReplicator(cfg ReplicatorConfig, stop <-chan struct{}) error {
	if cfg.Dial == nil || cfg.Store == nil {
		return fmt.Errorf("ps: replicator needs a dialer and a store")
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	grace := cfg.Grace
	if grace <= 0 {
		grace = 2 * time.Second
	}
	var installs, unchanged *obs.Counter
	var version, lagGauge *obs.Gauge
	if cfg.Metrics != nil {
		installs = cfg.Metrics.Counter("dssp_cluster_replica_installs_total",
			"Weight snapshots installed from the primary's replication stream.")
		unchanged = cfg.Metrics.Counter("dssp_cluster_replica_unchanged_total",
			"Replication polls that found the primary's version unchanged.")
		version = cfg.Metrics.Gauge("dssp_cluster_replica_version",
			"Store version of the last installed replication snapshot.")
		lagGauge = cfg.Metrics.Gauge("dssp_cluster_replica_behind",
			"Versions the last poll saw the primary ahead of the backup (pre-install).")
	}

	lastContact := time.Now()
	installed := cfg.Store.Version()
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		// A replica session adopts the primary's codec, so the stream carries
		// whatever precision the primary's workers see on their own pulls.
		var client *Client
		conn, err := cfg.Dial()
		if err == nil {
			client, err = OpenReplica(conn)
		}
		if err != nil {
			if time.Since(lastContact) > grace {
				return ErrPrimaryDead
			}
			if !sleepOrStop(interval, stop) {
				return nil
			}
			continue
		}
		lastContact = time.Now()
		for {
			params, v, err := client.Pull()
			if err != nil {
				_ = conn.Close()
				break // reconnect (or give up) via the outer loop
			}
			lastContact = time.Now()
			if lagGauge != nil {
				lagGauge.Set(float64(v - installed))
			}
			if v == installed {
				if unchanged != nil {
					unchanged.Inc()
				}
			} else if err := cfg.Store.Install(params, v); err != nil {
				// A failed install (shape drift, version regression) is a
				// wiring bug, not a liveness problem; surface it.
				_ = conn.Close()
				return fmt.Errorf("ps: replica install at version %d: %w", v, err)
			} else {
				installed = v
				if installs != nil {
					installs.Inc()
				}
				if version != nil {
					version.Set(float64(v))
				}
			}
			if !sleepOrStop(interval, stop) {
				_ = conn.Close()
				return nil
			}
		}
		if time.Since(lastContact) > grace {
			return ErrPrimaryDead
		}
	}
}

// sleepOrStop waits d, returning false if stop closed first.
func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
