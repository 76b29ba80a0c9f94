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
// worker is rejected at registration. A relay has no codec of its own: it
// adopts its root's.
//
// Gated pulls: a pull that names the version of the weights its sender
// already holds is answered, while the store is still at that version, with
// one payload-free frame (docs/PROTOCOL.md §5a). Replica sessions (a relay's
// upstream, a standby, a coordinator's snapshot) name one; workers pull in
// full, since every push moves the version.
//
// Fault tolerance: -lease d leases every session at d — each Registered
// reply names the lease, every client heartbeats every quarter of it on its
// own, and a session silent for longer is evicted — accepts mid-run rejoins
// from workers started with -reconnect, and finishes when the live workers
// do (0, the default, is fixed membership);
// -checkpoint-dir/-checkpoint-every persist the store as one file
// (checkpoint.frames) so a restarted server resumes the run where it stopped,
// stepping at its own -lr.
//
// Server groups: -role places this server in a multi-server group
// (DESIGN.md §10). A coordinator (-role coordinator -cluster-servers N) owns
// the paradigm policy, the cluster map and the group's layout: from the model,
// N and its -shards (the group-wide shard count, 0 = two per data server) it
// derives every range. A data server (-role data -peers <coordinator>
// -cluster-index i) names range i and is told the range in the coordinator's
// reply; it reads no -shards or -cluster-servers, and its start-up line
// names what it was given. The coordinator decides who owns a range: the
// first data server to announce it; a later one started with the same
// -cluster-index stands by, replicating the owner's weights, and when the
// owner's announce connection drops mid-run the coordinator promotes the
// longest-standing standby. Losing the coordinator is fatal to a data server,
// unless the coordinator finished the run: it then says so on the announce
// connection before it exits. Workers join the group with psworker -server
// <coordinator>; a data server refuses a worker, naming the coordinator.
//
// Aggregation tier: -role relay runs an aggregation relay (DESIGN.md §11)
// instead of a server: it registers a trunk with the root at -parent,
// accepts up to -fanout ordinary worker sessions on -addr, sums their
// gradients coordinate-wise, and forwards one ×k-weighted push per round —
// cutting the root's ingress from O(workers) to O(workers/fanout) frames.
// Workers join the tree with psworker -server <root>; they learn their
// relay from the root's layout and re-parent if it dies. A partial
// stalled by a straggler is forwarded incomplete after 50ms. Codec and lease
// are the root's: the relay's trunk adopts the root's codec, and the relay
// leases its workers at the lease the root put the trunk under, and not at
// all when the root leases nothing.
//
// Flags per role: -role is read first, and the rest of the command line is
// parsed with that role's own flag set, so a flag the role does not read is
// refused by name (psserver -role <role> -h lists the set):
//
//   - every role: -role, -addr, -metrics-addr;
//   - every server role (flat, coordinator, data): -compress, -topk,
//     -compress-pull, -lease, -workers, -model, -classes, -image-size,
//     -seed, -trace-every, -aggregator, -clip-norm,
//     -guard, -checkpoint-dir, -checkpoint-every (the server then refuses
//     the ones its role does not act on: a coordinator, -guard,
//     -checkpoint-*, an -aggregator other than sum and -clip-norm);
//   - a flat server and a coordinator, which run the paradigm, evaluate and
//     lay the store out: -paradigm, -staleness, -range, -enforce-bound,
//     -examples, -shards;
//   - a flat server and a data server, which hold weights: -lr, -momentum;
//   - a coordinator: -cluster-servers; a data server: -peers,
//     -cluster-index; a data server and a relay: -advertise;
//   - a relay: -parent, -fanout.
//
// Observability: -metrics-addr starts an admin HTTP listener serving
// Prometheus /metrics, /healthz, a /statusz JSON snapshot, and
// net/http/pprof (docs/METRICS.md catalogs every series). -trace-every
// samples the push lifecycle (receive → guard → apply → release) for one in
// N pushes; /statusz?traces=1 returns the sampled traces.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"dssp"
	"dssp/internal/core"
	"dssp/internal/ps"
)

// roleRelay is -role's value for an aggregation relay; the server roles are
// dssp.RoleCoordinator, RoleData and "" for a flat server.
const roleRelay = "relay"

// invocation is one parsed command line: the relay's config when -role is
// relay (server.Cluster.Role holds it either way), else the server's.
type invocation struct {
	server dssp.ServerConfig
	relay  dssp.RelayConfig
}

func main() {
	inv, err := parse(os.Args[1:], os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case err != nil:
		os.Exit(2)
	case inv.server.Cluster.Role == roleRelay:
		err = runRelay(inv.relay)
	default:
		err = run(inv.server)
	}
	if err != nil {
		log.Fatalf("psserver: %v", err)
	}
}

// parse reads -role from args, then parses args with that role's flag set
// alone (roleFlags), so a flag the role does not read is refused by name.
// Refusals are written to out.
func parse(args []string, out io.Writer) (*invocation, error) {
	role := roleArg(args)
	if !slices.Contains([]string{"", dssp.RoleCoordinator, dssp.RoleData, roleRelay}, role) {
		fmt.Fprintf(out, "psserver: unknown -role %q (want coordinator, data or relay; none for a flat server)\n", role)
		return nil, fmt.Errorf("unknown role %q", role)
	}
	inv, fs := roleFlags(role)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	if inv.server.Cluster.Role != role {
		err = fmt.Errorf("-role must be given as a flag, not as the value of another")
	} else if fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintf(out, "psserver: %v\n", err)
	}
	inv.server.Dataset.Seed = inv.server.Seed
	return inv, err
}

// roleArg returns the value of the last -role in args, the one flag read
// before the role's flag set exists.
func roleArg(args []string) (role string) {
	for i, arg := range args {
		if name, value, inline := strings.Cut(strings.TrimLeft(arg, "-"), "="); strings.HasPrefix(arg, "-") && name == "role" {
			if !inline && i+1 < len(args) {
				value = args[i+1]
			}
			role = value
		}
	}
	return role
}

// roleFlags returns role's flag set and the invocation it fills: every flag
// the role reads, bound to the field it sets, and no other flag.
func roleFlags(role string) (*invocation, *flag.FlagSet) {
	name := "psserver"
	if role != "" {
		name += " -role " + role
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	inv := &invocation{}
	s, r := &inv.server, &inv.relay
	server := role != roleRelay
	member := role == dssp.RoleData

	addr, metricsAddr, advertise := &s.Addr, &s.MetricsAddr, &s.Cluster.Advertise
	if !server {
		addr, metricsAddr, advertise = &r.Addr, &r.MetricsAddr, &r.Advertise
		fs.StringVar(&r.Parent, "parent", "", "root server address the relay forwards to")
		fs.IntVar(&r.Fanout, "fanout", 4, "workers this relay aggregates per forwarded push")
	}
	fs.StringVar(&s.Cluster.Role, "role", "", "role: coordinator, data (server group, DESIGN.md §10), or relay (aggregation tier, DESIGN.md §11); empty = standalone server. Each role reads its own flags: psserver -role <role> -h lists them")
	fs.StringVar(addr, "addr", ":7070", "TCP listen address")
	fs.StringVar(metricsAddr, "metrics-addr", "", "admin HTTP listen address serving /metrics, /healthz, /statusz and pprof (empty = off)")
	if server {
		fs.StringVar(&s.Compression.Codec, "compress", "", "gradient codec on the wire: none, fp16, int8, topk (empty = none)")
		fs.Float64Var(&s.Compression.TopK, "topk", 0, "fraction of gradient entries the topk codec keeps (0 = default 0.1)")
		fs.BoolVar(&s.Compression.Pull, "compress-pull", false, "also compress pulled weights (fp16/int8 codecs only)")
		fs.DurationVar(&s.Lease, "lease", 0, "tolerate worker churn under this lease: every Registered reply names it, clients heartbeat every quarter of it, a session silent for longer is evicted, departed workers may rejoin, and the run finishes when live workers finish (0 = fixed membership)")
		s.Dataset.Noise = 0.5
		fs.IntVar(&s.Workers, "workers", 2, "number of workers expected to join")
		fs.StringVar((*string)(&s.Model), "model", string(dssp.ModelSmallMLP), "model: small-mlp, small-cnn, alexnet-small, resnet-8")
		fs.IntVar(&s.Dataset.Classes, "classes", 4, "number of classes in the synthetic dataset")
		fs.IntVar(&s.Dataset.ImageSize, "image-size", 16, "image size (or feature count for small-mlp)")
		fs.Int64Var(&s.Seed, "seed", 1, "seed for the initial weights (must match workers)")
		fs.IntVar(&s.TraceEvery, "trace-every", 0, "sample the push lifecycle for 1 in N pushes (0 = default 64, negative = off)")
		fs.StringVar(&s.Aggregator.Kind, "aggregator", dssp.AggregateSum, "gradient aggregation: sum, clipped, trimmed-mean, median (robust kinds tolerate Byzantine workers)")
		fs.Float64Var(&s.Aggregator.ClipNorm, "clip-norm", 0, "per-tensor L2 cap for the clipped aggregator (required with -aggregator clipped)")
		fs.BoolVar(&s.Guard.Enabled, "guard", false, "screen pushes for anomalies (norm outliers, lying clocks, floods) and evict repeat offenders")
		fs.StringVar(&s.Checkpoint.Dir, "checkpoint-dir", "", "directory for store checkpoints (restored on startup when present; empty = off)")
		fs.IntVar(&s.Checkpoint.Every, "checkpoint-every", 0, "checkpoint every N applied updates (0 = only on shutdown)")
	}
	// The paradigm runs, and the model is evaluated, on a flat server or a
	// coordinator; data servers run a local ASP.
	if role == "" || role == dssp.RoleCoordinator {
		s.Sync.Paradigm = dssp.DSSP
		fs.Func("paradigm", "synchronization paradigm: BSP, ASP, SSP, DSSP (default DSSP)", func(v string) (err error) {
			s.Sync.Paradigm, err = core.ParseParadigm(v)
			return err
		})
		fs.IntVar(&s.Sync.Staleness, "staleness", 3, "staleness threshold (SSP) or lower bound sL (DSSP)")
		fs.IntVar(&s.Sync.Range, "range", 12, "DSSP threshold range r = sU - sL")
		fs.BoolVar(&s.Sync.EnforceBound, "enforce-bound", false, "use DSSP's strict Theorem-2 mode")
		fs.IntVar(&s.Dataset.Examples, "examples", 512, "number of synthetic training examples")
	}
	// The weights, and the optimizer stepping them, live on every server but
	// a coordinator, whose store holds no tensors.
	if server && role != dssp.RoleCoordinator {
		fs.Float64Var(&s.LearningRate, "lr", 0.1, "learning rate (a run restored from a checkpoint steps at this rate, not the saved run's)")
		fs.Float64Var(&s.Momentum, "momentum", 0, "SGD momentum")
	}
	// The coordinator lays a group out; a data server is told its range.
	if server && !member {
		fs.IntVar(&s.Shards, "shards", 0, "parameter-store shards (0 = one per CPU); a coordinator's is the group-wide count (0 = two per data server)")
	}
	if role == dssp.RoleCoordinator {
		fs.IntVar(&s.Cluster.Servers, "cluster-servers", 0, "number of data servers in the group")
	}
	if member {
		fs.StringVar(&s.Cluster.Coordinator, "peers", "", "coordinator address")
		fs.IntVar(&s.Cluster.Index, "cluster-index", 0, "which range of the coordinator's layout this server serves, from 0")
	}
	if member || !server {
		fs.StringVar(advertise, "advertise", "", "address published in the cluster map, or by a relay in the root's tree layout (default: the listen address)")
	}
	return inv, fs
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

// run serves cfg until its workers finish, it fails, or it is interrupted.
func run(cfg dssp.ServerConfig) error {
	server, err := dssp.Serve(cfg)
	if err != nil {
		return err
	}
	defer server.Stop()
	mode := "fixed membership"
	if cfg.Lease > 0 {
		mode = fmt.Sprintf("elastic, lease %v", cfg.Lease)
	}
	// A data server runs no paradigm of its own (a local ASP): its line names
	// the range the coordinator gave it.
	st := server.Status()
	holds := cfg.Sync.Describe()
	if e := st.Entry; e.Addr != "" {
		holds = fmt.Sprintf("shards [%d, %d), tensors [%d, %d)", e.ShardLo, e.ShardHi, e.TensorLo, e.TensorHi)
	}
	fmt.Printf("parameter server listening on %s (%s, %d workers, codec %s, aggregator %s, %s)\n",
		server.Addr(), holds, cfg.Workers, cfg.Compression, cfg.Aggregator, mode)
	switch {
	case cfg.Cluster.Role == dssp.RoleCoordinator:
		fmt.Printf("cluster coordinator for %d data servers\n", cfg.Cluster.Servers)
	case st.Primary != "":
		fmt.Printf("cluster data server standing by for %s\n", st.Primary)
	}
	if st.Restored {
		fmt.Printf("restored checkpoint from %s at version %d\n", cfg.Checkpoint.Dir, st.Version)
	}
	if cfg.MetricsAddr != "" {
		fmt.Printf("admin endpoint on http://%s (/metrics, /healthz, /statusz, /debug/pprof)\n", server.MetricsAddr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-server.Failed():
		return server.FailureErr()
	case <-server.Done():
		// One consistent snapshot feeds the whole summary.
		st := server.Status()
		fmt.Println(summary(cfg.Cluster.Role, st))
		if st.Guard.DroppedPushes > 0 || len(st.Guard.Evicted) > 0 {
			fmt.Printf("guard: %d pushes rejected, %d workers evicted\n", st.Guard.DroppedPushes, len(st.Guard.Evicted))
		}
		// Only a flat server and a coordinator hold the whole model.
		if cfg.Cluster.Role == "" || cfg.Cluster.Role == dssp.RoleCoordinator {
			if acc, err := server.Evaluate(); err == nil {
				fmt.Printf("final model accuracy on held-out data: %.4f\n", acc)
			}
		}
	case s := <-sigs:
		st := server.Status()
		fmt.Printf("received %v; shutting down after %d updates (%d dropped)\n", s, st.Pushes, st.Dropped)
	}
	// Stop writes the final checkpoint (with -checkpoint-every 0 it is the
	// only one), so the failure check must come after it.
	server.Stop()
	if err := server.Status().CheckpointError; err != "" {
		fmt.Printf("warning: checkpoint write failed: %s\n", err)
	}
	return nil
}

// summary is a server role's end-of-run line. A data server that ended as a
// standby, never promoted, served no workers: its line names the owner it
// replicated and the store version it reached.
func summary(role string, st ps.ServerStatus) string {
	switch {
	case st.Primary != "" && !st.Promoted:
		return fmt.Sprintf("run complete: backup of %s at store version %d, promoted false", st.Primary, st.Version)
	case role == dssp.RoleData:
		return fmt.Sprintf("all workers finished: %d fragments applied, %d departures, %d rejoins (store version %d)",
			st.Pushes, st.Departures, st.Rejoins, st.Version)
	}
	return fmt.Sprintf("all workers finished: %d updates applied, %d releases, %d departures, %d rejoins (store version %d)",
		st.Pushes, st.Releases, st.Departures, st.Rejoins, st.Version)
}
