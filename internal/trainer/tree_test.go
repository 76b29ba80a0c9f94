package trainer

import (
	"fmt"
	"testing"
	"time"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/ps"
)

// TestTreeTopologyTrainsUnderEveryParadigm runs the aggregation-tree
// topology under each paradigm and checks it converges within the
// established tolerance of the flat run: relays change who sums the
// gradients, not what the optimizer sees.
func TestTreeTopologyTrainsUnderEveryParadigm(t *testing.T) {
	paradigms := []core.PolicyConfig{
		{Paradigm: core.ParadigmBSP},
		{Paradigm: core.ParadigmSSP, Staleness: 3},
		{Paradigm: core.ParadigmDSSP, Staleness: 1, Range: 4},
	}
	for _, p := range paradigms {
		p := p
		t.Run(p.Describe(), func(t *testing.T) {
			flatCfg := smallConfig(p)
			flatCfg.Workers = 4
			flat, err := Run(flatCfg)
			if err != nil {
				t.Fatal(err)
			}
			treeCfg := smallConfig(p)
			treeCfg.Workers = 4
			treeCfg.Fanout = 2
			tree, err := Run(treeCfg)
			if err != nil {
				t.Fatal(err)
			}
			if tree.Updates != flat.Updates {
				// Logical pushes must all reach the policy: the version
				// advances by the partial's weight, so the update count
				// matches flat push-for-push.
				t.Errorf("tree applied %d updates, flat %d", tree.Updates, flat.Updates)
			}
			if diff := tree.FinalAccuracy - flat.FinalAccuracy; diff < -0.15 {
				t.Errorf("tree accuracy %.3f more than 0.15 below flat %.3f",
					tree.FinalAccuracy, flat.FinalAccuracy)
			}
			if tree.Metrics[`dssp_tree_partials_total`] == 0 {
				t.Error("no relay partials reached the store")
			}
			if tree.Metrics[`dssp_tree_child_joins_total`] != 4 {
				t.Errorf("expected 4 trunk-routed joins, got %v",
					tree.Metrics[`dssp_tree_child_joins_total`])
			}
		})
	}
}

// TestTreeTopologyWithCompressionAndDeltaPull exercises the per-hop byte
// paths together: child→relay and relay→root pushes compressed with error
// feedback at each hop, pulls packed through the relay's cache, which its
// replica session keeps version-gated against the root.
func TestTreeTopologyWithCompressionAndDeltaPull(t *testing.T) {
	cfg := smallConfig(core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 3})
	cfg.Workers = 4
	cfg.Fanout = 2
	cfg.Compression = compress.Config{Codec: compress.Int8, Pull: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates == 0 {
		t.Fatal("no updates were applied")
	}
	if res.FinalAccuracy < 0.5 {
		t.Errorf("compressed tree run collapsed: final accuracy %.3f", res.FinalAccuracy)
	}
}

// TestTreeIngressReduction pins the relay tier's ingress cut: with 16
// workers at fanout 4 the root must receive at least 3x fewer push frames
// and 2x fewer push ingress bytes than the flat topology, a wider fanout (8)
// fewer frames still, while every logical push still reaches the policy
// layer at either fanout. Frames and bytes come from the root listener's
// transport meter, the same series a /metrics scrape exports.
func TestTreeIngressReduction(t *testing.T) {
	run := func(fanout int) *Result {
		cfg := smallConfig(core.PolicyConfig{Paradigm: core.ParadigmBSP})
		cfg.Workers = 16
		cfg.BatchSize = 4
		cfg.Epochs = 4
		cfg.Fanout = fanout
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flat := run(0)
	tree := run(4)
	wide := run(8)

	const framesKey = `dssp_transport_frames_total{dir="recv",type="Push"}`
	const bytesKey = `dssp_transport_bytes_total{dir="recv",type="Push"}`
	flatFrames, treeFrames, wideFrames := flat.Metrics[framesKey], tree.Metrics[framesKey], wide.Metrics[framesKey]
	flatBytes, treeBytes := flat.Metrics[bytesKey], tree.Metrics[bytesKey]
	if flatFrames == 0 || treeFrames == 0 || wideFrames == 0 {
		t.Fatalf("missing transport meters: flat=%v tree=%v wide=%v", flatFrames, treeFrames, wideFrames)
	}
	if wideFrames >= treeFrames {
		t.Errorf("fanout-8 root push ingress %v frames, want fewer than fanout 4's %v", wideFrames, treeFrames)
	}
	if wide.Updates != flat.Updates {
		t.Errorf("fanout-8 tree applied %d updates, flat %d — logical pushes lost", wide.Updates, flat.Updates)
	}
	if treeFrames*3 > flatFrames {
		t.Errorf("root push ingress %v frames, want <= 1/3 of flat's %v", treeFrames, flatFrames)
	}
	if treeBytes*2 > flatBytes {
		t.Errorf("root push ingress %v bytes, want <= 1/2 of flat's %v", treeBytes, flatBytes)
	}
	if tree.Updates != flat.Updates {
		t.Errorf("tree applied %d updates, flat %d — logical pushes lost", tree.Updates, flat.Updates)
	}
	if acc := tree.FinalAccuracy; acc < flat.FinalAccuracy-0.15 {
		t.Errorf("tree accuracy %.3f more than 0.15 below flat %.3f", acc, flat.FinalAccuracy)
	}
}

// TestTreeTrafficReconciliation checks per-hop accounting (satellite: every
// byte crossing a relay is counted on both ends): the bytes the workers
// report pushing must equal the ingress the relays account, and the relays'
// forwarded bytes must land within the root's received push bytes.
func TestTreeTrafficReconciliation(t *testing.T) {
	cfg := smallConfig(core.PolicyConfig{Paradigm: core.ParadigmBSP})
	cfg.Workers = 4
	cfg.Fanout = 2
	var relays []*ps.Relay
	cfg.hook = func(s *serving) { relays = s.relays }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(relays) != 2 {
		t.Fatalf("expected 2 relays for 4 workers at fanout 2, got %d", len(relays))
	}

	var ingress, forwarded int64
	var childPushes uint64
	for _, r := range relays {
		s := r.Stats()
		ingress += s.IngressBytes
		forwarded += s.ForwardedBytes
		childPushes += s.ChildPushes
	}
	if res.PushedBytes != ingress {
		t.Errorf("workers report pushing %d bytes, relays account %d ingress", res.PushedBytes, ingress)
	}
	if forwarded >= ingress {
		t.Errorf("relays forwarded %d bytes >= their %d ingress: no aggregation happened", forwarded, ingress)
	}
	rootBytes := int64(res.Metrics[`dssp_transport_bytes_total{dir="recv",type="Push"}`])
	// The channel transport's meter adds a small fixed envelope per frame
	// on top of the payload bytes the relay accounts, so the root reads
	// slightly above the relays' own number — never below it, and never by
	// more than the envelope allowance.
	if rootBytes < forwarded {
		t.Errorf("root metered %d push bytes, below the %d the relays report forwarding", rootBytes, forwarded)
	}
	rootFrames := int64(res.Metrics[`dssp_transport_frames_total{dir="recv",type="Push"}`])
	if slack := rootBytes - forwarded; slack > 128*rootFrames {
		t.Errorf("root metered %d push bytes vs %d forwarded: reconciliation gap %d too large",
			rootBytes, forwarded, slack)
	}
	if childPushes == 0 {
		t.Error("relays saw no child pushes")
	}
}

// TestRelayUpstreamPullsAreGated pins the traffic the version gate exists
// for: a relay's upstream cache refreshes once per child pull, and when no
// push landed since its last refresh the root answers with one empty
// Unchanged frame. Across tree cells (2 workers at fanout 2, 8 at fanout 4)
// under BSP, ASP and DSSP, at 2 and 4 shards, at least 30% of the root's
// pulls are answered that way, and every pull, full or Unchanged, is one
// Weights frame. Workers never name a version, so flat and group runs, which
// have no relay, answer none.
func TestRelayUpstreamPullsAreGated(t *testing.T) {
	paradigms := []core.PolicyConfig{
		{Paradigm: core.ParadigmBSP},
		{Paradigm: core.ParadigmASP},
		{Paradigm: core.ParadigmDSSP, Staleness: 1, Range: 4},
	}
	run := func(t *testing.T, p core.PolicyConfig, shards int, adjust func(*Config)) ([]*ps.Server, *Result) {
		t.Helper()
		cfg := smallConfig(p)
		cfg.Shards = shards
		adjust(&cfg)
		var servers []*ps.Server
		cfg.hook = func(s *serving) { servers = s.servers }
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return servers, res
	}
	for _, p := range paradigms {
		for _, shards := range []int{2, 4} {
			for _, cell := range []struct{ workers, fanout int }{{2, 2}, {8, 4}} {
				name := fmt.Sprintf("%s/shards=%d/workers=%d/fanout=%d", p.Describe(), shards, cell.workers, cell.fanout)
				t.Run(name, func(t *testing.T) {
					_, res := run(t, p, shards, func(cfg *Config) {
						cfg.Workers, cfg.Fanout = cell.workers, cell.fanout
						// An iteration takes microseconds: without a floor under
						// it, an ASP worker can finish before its sibling joins,
						// and a relay of one child pulls only after pushes.
						cfg.WorkerDelay = make([]time.Duration, cell.workers)
						for w := range cfg.WorkerDelay {
							cfg.WorkerDelay[w] = 500 * time.Microsecond
						}
					})
					pulls := res.Metrics["dssp_pull_total"]
					unchanged := res.Metrics["dssp_pull_unchanged_total"]
					weights := res.Metrics[`dssp_transport_frames_total{dir="sent",type="Weights"}`]
					t.Logf("%v of %v root pulls answered Unchanged", unchanged, pulls)
					if pulls == 0 || unchanged < 0.3*pulls {
						t.Errorf("%v of %v root pulls answered Unchanged, want at least 30%%", unchanged, pulls)
					}
					if weights != pulls {
						t.Errorf("root sent %v Weights frames for %v pulls (%v Unchanged) at %d shards, want one a pull",
							weights, pulls, unchanged, shards)
					}
				})
			}
			for _, group := range []bool{false, true} {
				name := fmt.Sprintf("%s/shards=%d/flat", p.Describe(), shards)
				if group {
					name = fmt.Sprintf("%s/shards=%d/group", p.Describe(), shards)
				}
				t.Run(name, func(t *testing.T) {
					servers, _ := run(t, p, shards, func(cfg *Config) {
						cfg.Workers = 4
						if group {
							cfg.ClusterServers = 2
						}
					})
					for i, srv := range servers {
						m := srv.Registry().Snapshot()
						if n := m["dssp_pull_unchanged_total"]; n != 0 {
							t.Errorf("server %d answered %v of its %v worker pulls Unchanged, want none", i, n, m["dssp_pull_total"])
						}
					}
				})
			}
		}
	}
}

// TestTreeLeaseIsTheRootsDecision is TestElasticLeaseKeepsSlowWorker through
// a fanout-2 relay: the relay leases its children at the lease the root put
// its trunk under, and its trunk and pull session heartbeat under it on their
// own, so neither the slow worker nor the trunk is evicted. The relay is the
// one Config.Fanout stands up, and again one stood up with nothing but its
// place in the tree, as psserver -role relay's default flags make it.
func TestTreeLeaseIsTheRootsDecision(t *testing.T) {
	for _, arm := range []string{"fanout", "default-relay"} {
		t.Run(arm, func(t *testing.T) {
			cfg := slowWorkerUnderLease()
			if arm == "fanout" {
				cfg.Fanout = 2
			} else {
				cfg.hook = func(s *serving) {
					l := s.net.listen()
					relay, err := ps.NewRelay(ps.RelayConfig{Parent: s.route.Addr, Fanout: 2, Advertise: l.Addr()}, s.net.dial, nil)
					if err != nil {
						t.Fatal(err)
					}
					s.relays = append(s.relays, relay)
					go func() { _ = relay.Serve(l) }()
				}
			}
			res := runWithDeadline(t, cfg)
			// A child the relay evicted would be a departure at the root, and
			// its worker's run would fail.
			checkNobodyDeparted(t, cfg, res)
			if joins := res.Metrics["dssp_tree_child_joins_total"]; joins != 2 {
				t.Errorf("%v joins through the relay, want 2", joins)
			}
		})
	}
}

// TestTreeChildLeavesCountOnlyUnfinishedChildren: dssp_tree_child_leaves_total
// counts a relay-routed child that left without sending Done, the rule
// dssp_departures_total applies to a direct worker. A clean two-worker run
// behind one fanout-2 relay reads 0; with one child killed mid-run it reads 1.
func TestTreeChildLeavesCountOnlyUnfinishedChildren(t *testing.T) {
	for _, tc := range []struct {
		name    string
		crashAt map[int]int
		want    float64
	}{
		{"clean", nil, 0},
		{"crash", map[int]int{1: 3}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(core.PolicyConfig{Paradigm: core.ParadigmASP})
			cfg.Workers, cfg.Fanout, cfg.CrashAt = 2, 2, tc.crashAt
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Metrics[`dssp_tree_child_leaves_total`]; got != tc.want {
				t.Errorf("dssp_tree_child_leaves_total = %v, want %v", got, tc.want)
			}
		})
	}
}
