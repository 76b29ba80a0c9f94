// Command psserver runs a stand-alone DSSP parameter server over TCP.
//
// Example:
//
//	psserver -addr :7070 -workers 2 -paradigm DSSP -staleness 3 -range 12
//
// Workers started with cmd/psworker (using matching -model, -classes, -seed
// flags) connect to it and train a shared model under the selected
// synchronization paradigm.
//
// Wire format: the TCP encoding is the versioned zero-copy binary frame
// protocol (docs/PROTOCOL.md specifies it byte by byte). A peer that is not
// speaking it, or speaks a version this build does not, is detected on the
// first frame and reported instead of hanging.
//
// Gradient compression: -compress selects the gradient codec (none, fp16,
// int8, topk), -topk its keep fraction, and -compress-pull additionally
// compresses the weights workers pull. Workers launched with their default
// -compress auto adopt whatever the server speaks; an explicitly mismatched
// worker is rejected at registration.
//
// Gated pulls: a pull that names the version of the weights its sender
// already holds is answered, while the store is still at that version, with
// one payload-free frame (docs/PROTOCOL.md §5a). Replica sessions (a relay's
// upstream, a backup, a coordinator's snapshot) name one; workers pull in
// full, since every push moves the version.
//
// Fault tolerance: -elastic lease-monitors worker sessions (evicting any
// silent for -heartbeat-timeout) and accepts mid-run rejoins from workers
// started with -reconnect; -checkpoint-dir/-checkpoint-every persist the
// store as one file (checkpoint.ckpt) so a restarted server resumes the run
// where it stopped.
//
// Server groups: -role places this server in a multi-server group
// (DESIGN.md §10). A coordinator (-role coordinator -cluster-servers N)
// owns the paradigm policy and the cluster map; data servers (-role data
// -peers <coordinator> -cluster-servers N -cluster-index i) each own a
// contiguous shard range of the store; a backup (-role backup -primary <data
// server>) replicates its primary's weights and requests promotion when the
// primary stays dead past -replicate-grace. Losing the coordinator is fatal
// to a data server or backup, unless the coordinator finished the run: it
// then says so on the announce connection before it exits. In a group
// -shards is the group-wide shard count (0 = two per data server) and must be
// the same on every member; a data server whose range then reaches past the
// coordinator's count is refused at announce. Workers join the group with
// psworker -cluster -server <coordinator>.
//
// Aggregation tier: -role relay runs an aggregation relay (DESIGN.md §11)
// instead of a server: it registers a trunk with the root at -parent,
// accepts up to -fanout ordinary worker sessions on -addr, sums their
// gradients coordinate-wise, and forwards one ×k-weighted push per round —
// cutting the root's ingress from O(workers) to O(workers/fanout) frames.
// Workers join the tree with psworker -tree -server <root>; they learn
// their relay from the root's layout and re-parent if it dies. A partial
// stalled by a straggler is forwarded incomplete after 50ms. A relay leases
// its workers with -heartbeat-timeout and heartbeats to the root every
// quarter of it, so a root leasing at the same timeout keeps it. A relay
// refuses the flags only a server acts on (-aggregator, -clip-norm, -guard,
// -elastic, -checkpoint-*, -shards, -trace-*) by name rather than ignore them.
//
// Observability: -metrics-addr starts an admin HTTP listener serving
// Prometheus /metrics, /healthz, a /statusz JSON snapshot, and
// net/http/pprof (docs/METRICS.md catalogs every series). -trace-every
// samples the push lifecycle (receive → guard → apply → release) for one in
// N pushes; -trace-dump prints the sampled traces as JSON lines at the end
// of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dssp"
	"dssp/internal/core"
)

func main() {
	var (
		addr         = flag.String("addr", ":7070", "TCP listen address")
		workers      = flag.Int("workers", 2, "number of workers expected to join")
		paradigm     = flag.String("paradigm", "DSSP", "synchronization paradigm: BSP, ASP, SSP, DSSP, BoundedDelay, BackupBSP")
		staleness    = flag.Int("staleness", 3, "staleness threshold (SSP) or lower bound sL (DSSP)")
		rng          = flag.Int("range", 12, "DSSP threshold range r = sU - sL")
		enforce      = flag.Bool("enforce-bound", false, "use DSSP's strict Theorem-2 mode")
		backups      = flag.Int("backups", 1, "spare workers for BackupBSP")
		model        = flag.String("model", string(dssp.ModelSmallMLP), "model: small-mlp, small-cnn, alexnet-small, resnet-8")
		classes      = flag.Int("classes", 4, "number of classes in the synthetic dataset")
		examples     = flag.Int("examples", 512, "number of synthetic training examples")
		imageSize    = flag.Int("image-size", 16, "image size (or feature count for small-mlp)")
		lr           = flag.Float64("lr", 0.1, "learning rate")
		momentum     = flag.Float64("momentum", 0.0, "SGD momentum")
		shards       = flag.Int("shards", 0, "parameter-store shards (0 = one per CPU); in a server group the group-wide count, the same on every member (0 = two per data server)")
		compressName = flag.String("compress", dssp.CompressNone, "gradient codec on the wire: none, fp16, int8, topk")
		topk         = flag.Float64("topk", 0, "fraction of gradient entries the topk codec keeps (0 = default 0.1)")
		compressPull = flag.Bool("compress-pull", false, "also compress pulled weights (fp16/int8 codecs only)")
		aggName      = flag.String("aggregator", dssp.AggregateSum, "gradient aggregation: sum, clipped, trimmed-mean, median (robust kinds tolerate Byzantine workers)")
		clipNorm     = flag.Float64("clip-norm", 0, "per-tensor L2 cap for the clipped aggregator (required with -aggregator clipped)")
		guard        = flag.Bool("guard", false, "screen pushes for anomalies (norm outliers, lying clocks, floods) and evict repeat offenders")
		elastic      = flag.Bool("elastic", false, "tolerate worker churn: lease-monitor sessions, accept rejoins, finish when live workers finish")
		hbTimeout    = flag.Duration("heartbeat-timeout", 5*time.Second, "evict a session silent for this long (elastic mode)")
		ckptDir      = flag.String("checkpoint-dir", "", "directory for store checkpoints (restored on startup when present; empty = off)")
		ckptEvery    = flag.Int("checkpoint-every", 0, "checkpoint every N applied updates (0 = only on shutdown)")
		metricsAddr  = flag.String("metrics-addr", "", "admin HTTP listen address serving /metrics, /healthz, /statusz and pprof (empty = off)")
		traceEvery   = flag.Int("trace-every", 0, "sample the push lifecycle for 1 in N pushes (0 = default 64, negative = off)")
		traceDump    = flag.Bool("trace-dump", false, "print sampled push-lifecycle traces as JSON lines at end of run")
		seed         = flag.Int64("seed", 1, "seed for the initial weights (must match workers)")

		role           = flag.String("role", "", "role: coordinator, data, backup (server group, DESIGN.md §10), or relay (aggregation tier, DESIGN.md §11); empty = standalone server")
		peers          = flag.String("peers", "", "coordinator address (data and backup roles)")
		parent         = flag.String("parent", "", "root server address the relay forwards to (relay role)")
		fanout         = flag.Int("fanout", 4, "workers this relay aggregates per forwarded push (relay role)")
		clusterServers = flag.Int("cluster-servers", 0, "number of data servers in the group (all cluster roles)")
		clusterIndex   = flag.Int("cluster-index", 0, "this server's slot in [0, cluster-servers) — which shard range it owns")
		advertise      = flag.String("advertise", "", "address published in the cluster map (default: the listen address)")
		primary        = flag.String("primary", "", "the data server this backup replicates from (backup role)")
		replicateEvery = flag.Duration("replicate-every", 0, "backup replication poll cadence (0 = default 25ms)")
		replicateGrace = flag.Duration("replicate-grace", 0, "how long the primary may stay unreachable before the backup requests promotion (0 = default 2s)")
	)
	flag.Parse()

	if *role == "relay" {
		// A relay left on the default codec follows the parent, like a
		// worker's -compress auto; an explicit -compress must match exactly.
		relayCompress := dssp.Compression{Codec: dssp.CompressAuto, TopK: *topk, Pull: *compressPull}
		var serverOnly []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "compress":
				relayCompress.Codec = *compressName
			case "aggregator", "clip-norm", "guard", "elastic", "checkpoint-dir", "checkpoint-every",
				"shards", "trace-every", "trace-dump":
				serverOnly = append(serverOnly, "-"+f.Name)
			}
		})
		if len(serverOnly) > 0 {
			log.Fatalf("psserver: a relay does not act on %s; set it on the root server", strings.Join(serverOnly, ", "))
		}
		if err := runRelay(dssp.RelayConfig{
			Addr:             *addr,
			Advertise:        *advertise,
			Parent:           *parent,
			Fanout:           *fanout,
			Compression:      relayCompress,
			HeartbeatTimeout: *hbTimeout,
			MetricsAddr:      *metricsAddr,
		}); err != nil {
			log.Fatalf("psserver: %v", err)
		}
		return
	}

	cluster := dssp.ClusterOptions{
		Role:           *role,
		Coordinator:    *peers,
		Servers:        *clusterServers,
		Index:          *clusterIndex,
		Advertise:      *advertise,
		Primary:        *primary,
		ReplicateEvery: *replicateEvery,
		ReplicateGrace: *replicateGrace,
	}

	cfg := dssp.ServerConfig{
		Addr:         *addr,
		Workers:      *workers,
		Model:        dssp.Model(*model),
		LearningRate: *lr,
		Momentum:     *momentum,
		Options: dssp.Options{
			Shards:           *shards,
			Compression:      dssp.Compression{Codec: *compressName, TopK: *topk, Pull: *compressPull},
			Aggregator:       dssp.Aggregator{Kind: *aggName, ClipNorm: *clipNorm},
			Guard:            dssp.Guard{Enabled: *guard},
			Elastic:          *elastic,
			HeartbeatTimeout: *hbTimeout,
			Checkpoint:       dssp.Checkpoint{Dir: *ckptDir, Every: *ckptEvery},
		},
		MetricsAddr: *metricsAddr,
		TraceEvery:  *traceEvery,
		Seed:        *seed,
		Dataset: dssp.DatasetConfig{
			Examples: *examples, Classes: *classes, ImageSize: *imageSize, Noise: 0.5, Seed: *seed,
		},
		Cluster: cluster,
	}
	if err := run(cfg, *paradigm, *staleness, *rng, *enforce, *backups, *traceDump); err != nil {
		log.Fatalf("psserver: %v", err)
	}
}

// runRelay runs the aggregation-relay role until interrupted or until its
// trunk to the parent dies (workers then re-parent via a fresh layout fetch).
func runRelay(cfg dssp.RelayConfig) error {
	relay, err := dssp.ServeRelay(cfg)
	if err != nil {
		return err
	}
	defer relay.Stop()
	fmt.Printf("aggregation relay listening on %s (parent %s, fanout %d)\n",
		relay.Addr(), cfg.Parent, cfg.Fanout)
	if cfg.MetricsAddr != "" {
		fmt.Printf("admin endpoint on http://%s (/metrics, /healthz, /debug/pprof)\n", relay.MetricsAddr())
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-relay.Done():
		if err := relay.Err(); err != nil {
			return err
		}
	case s := <-sigs:
		st := relay.Stats()
		fmt.Printf("received %v; shutting down after %d child pushes forwarded as %d partials\n",
			s, st.ChildPushes, st.ForwardedPushes)
	}
	st := relay.Stats()
	fmt.Printf("relay forwarded %d partials (%d bytes) for %d child pushes (%d bytes ingress)\n",
		st.ForwardedPushes, st.ForwardedBytes, st.ChildPushes, st.IngressBytes)
	return nil
}

func run(cfg dssp.ServerConfig, paradigm string, staleness, rng int, enforce bool, backups int, traceDump bool) error {
	p, err := core.ParseParadigm(paradigm)
	if err != nil {
		return err
	}
	cfg.Sync = dssp.Sync{Paradigm: p, Staleness: staleness, Range: rng, EnforceBound: enforce, Backups: backups}
	server, err := dssp.Serve(cfg)
	if err != nil {
		return err
	}
	defer server.Stop()
	mode := "fixed membership"
	if cfg.Elastic {
		mode = "elastic"
	}
	fmt.Printf("parameter server listening on %s (%s, %d workers, codec %s, aggregator %s, %s)\n",
		server.Addr(), cfg.Sync.Describe(), cfg.Workers, cfg.Compression, cfg.Aggregator, mode)
	switch cfg.Cluster.Role {
	case dssp.RoleCoordinator:
		fmt.Printf("cluster coordinator for %d data servers\n", cfg.Cluster.Servers)
	case dssp.RoleData:
		fmt.Printf("cluster data server (group of %d), announcing to coordinator %s\n", cfg.Cluster.Servers, cfg.Cluster.Coordinator)
	case dssp.RoleBackup:
		fmt.Printf("cluster backup replicating %s, promotion via coordinator %s\n", cfg.Cluster.Primary, cfg.Cluster.Coordinator)
	}
	if server.Restored() {
		fmt.Printf("restored checkpoint from %s at version %d\n", cfg.Checkpoint.Dir, server.Version())
	}
	if cfg.MetricsAddr != "" {
		fmt.Printf("admin endpoint on http://%s (/metrics, /healthz, /statusz, /debug/pprof)\n", server.MetricsAddr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-server.Failed():
		err := server.FailureErr()
		server.Stop()
		return err
	case <-server.Done():
		// One consistent snapshot feeds the whole summary.
		st := server.Status()
		fmt.Printf("all workers finished: %d updates applied, %d straggler updates dropped, %d releases, %d departures, %d rejoins (store version %d)\n",
			st.Pushes, st.Dropped, st.Releases, st.Departures, st.Rejoins, st.Version)
		if st.Guard.DroppedPushes > 0 || len(st.Guard.Evicted) > 0 {
			fmt.Printf("guard: %d pushes rejected, %d workers evicted\n", st.Guard.DroppedPushes, len(st.Guard.Evicted))
		}
		if acc, err := server.Evaluate(); err == nil {
			fmt.Printf("final model accuracy on held-out data: %.4f\n", acc)
		}
	case s := <-sigs:
		st := server.Status()
		fmt.Printf("received %v; shutting down after %d updates (%d dropped)\n", s, st.Pushes, st.Dropped)
	}
	if traceDump {
		for _, tr := range server.Traces() {
			if line, err := json.Marshal(tr); err == nil {
				fmt.Printf("trace: %s\n", line)
			}
		}
	}
	// Stop writes the final checkpoint (with -checkpoint-every 0 it is the
	// only one), so the failure check must come after it.
	server.Stop()
	if err := server.CheckpointError(); err != nil {
		fmt.Printf("warning: checkpoint write failed: %v\n", err)
	}
	return nil
}
