package ps

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/transport"
)

// TestStartActsOnOrRefusesEveryOption runs every role against every
// server-side Options field set alone: Start either stands the role up with
// the field in force, or refuses it by name. The refusals are the
// coordinator's Guard, Aggregator and Checkpoint and a data server's Shards,
// and nothing else; a field added to Options without a row here fails the
// test.
//
// Elastic and HeartbeatTimeout keep rows of their own for what the one Lease
// field now holds: a lease makes every role elastic, and it is the timeout the
// role announces in Registered, so each row sets a lease alone and checks the
// role both runs it and announces it.
//
// A data server's rows announce range 0 to a coordinator whose range 0 has no
// owner. The backup rows start a standby: a data server that announces for a
// range that already has an owner. Start runs the same path for it as for an
// owner; the row checks the option is in force once the coordinator has named
// the standby's owner.
func TestStartActsOnOrRefusesEveryOption(t *testing.T) {
	set := map[string]func(*Options){
		"Shards":      func(o *Options) { o.Shards = 2 },
		"Compression": func(o *Options) { o.Compression = compress.Config{Codec: compress.FP16} },
		"Aggregator":  func(o *Options) { o.Aggregator = AggregatorConfig{Kind: AggClipped, ClipNorm: 1} },
		"Guard":       func(o *Options) { o.Guard = GuardConfig{Enabled: true} },
		"Lease":       func(o *Options) { o.Lease = time.Second },
		"Checkpoint":  func(o *Options) { o.Checkpoint = CheckpointConfig{Dir: t.TempDir()} },
	}
	announced := map[string]time.Duration{"Elastic": time.Second, "HeartbeatTimeout": 3 * time.Second}
	refused := map[[2]string]bool{{RoleCoordinator, "Guard"}: true, {RoleCoordinator, "Aggregator"}: true,
		{RoleCoordinator, "Checkpoint"}: true, {RoleData, "Shards"}: true}
	noPeer := func(string) (transport.Conn, error) { return nil, errors.New("no peer") }
	fields := reflect.TypeOf(Options{})
	names := []string{"Elastic", "HeartbeatTimeout"}
	for i := 0; i < fields.NumField(); i++ {
		names = append(names, fields.Field(i).Name)
	}
	// start stands cfg up as the row's role: a data server as the owner of
	// range 0 of a group, a backup row as a standby for it, every other row
	// alone.
	start := func(t *testing.T, row string, cfg ServerConfig) (*Server, error) {
		if cfg.Cluster.Role != RoleData {
			return Start(cfg, seededModel(25), clusterOpt(), transport.NewChanListener(), noPeer)
		}
		var g *testGroup
		if row == rowBackup {
			g = startTestGroup(t, 1, 2, core.MustNewASP(1), seededModel(25))
		} else {
			g = startCoordinator(t, 1, 2, core.MustNewASP(1), seededModel(25), 0)
		}
		l := transport.NewChanListener()
		g.addListener(l)
		cfg.Cluster = ClusterConfig{Role: RoleData, Coordinator: g.coordAddr}
		srv, err := Start(cfg, seededModel(25), clusterOpt(), l, g.dial)
		if err != nil || row != rowBackup {
			return srv, err
		}
		eventuallyTrue(t, 5*time.Second, "the coordinator named the standby's owner", func() bool {
			if err := srv.FailureErr(); err != nil {
				t.Fatalf("the standby failed: %v", err)
			}
			return srv.Status().Primary == g.dataAddrs[0]
		})
		return srv, nil
	}
	for _, row := range []string{"", RoleCoordinator, RoleData, rowBackup} {
		role := row
		if row == rowBackup {
			role = RoleData
		}
		for _, name := range names {
			t.Run("role="+row+"/"+name, func(t *testing.T) {
				if lease, ok := announced[name]; ok {
					cfg := ServerConfig{Workers: 1, Policy: core.MustNewASP(1),
						Cluster: ClusterConfig{Role: role, Coordinator: "coordinator", Servers: 2}}
					cfg.Options.Lease = lease
					srv, err := start(t, row, cfg)
					if err != nil {
						t.Fatalf("role %q refused a lease: %v", role, err)
					}
					defer srv.Stop()
					if srv.cfg.Options.Lease != lease || srv.registered(0).Lease != lease {
						t.Fatalf("role %q runs lease %v and announces %v, want %v", role, srv.cfg.Options.Lease, srv.registered(0).Lease, lease)
					}
					return
				}
				apply := set[name]
				if apply == nil {
					t.Fatalf("no row sets Options.%s", name)
				}
				cfg := ServerConfig{Workers: 1, Policy: core.MustNewASP(1),
					Cluster: ClusterConfig{Role: role, Coordinator: "coordinator", Servers: 2}}
				apply(&cfg.Options)
				srv, err := start(t, row, cfg)
				if refused[[2]string{role, name}] {
					if err == nil {
						srv.Stop()
						t.Fatalf("role %q accepted Options.%s", role, name)
					}
					if !strings.Contains(err.Error(), name) {
						t.Fatalf("refusal %q does not name %s", err, name)
					}
					return
				}
				if err != nil {
					t.Fatalf("role %q refused Options.%s: %v", role, name, err)
				}
				defer srv.Stop()
				want, err := cfg.Options.Normalized()
				if err != nil {
					t.Fatal(err)
				}
				got := reflect.ValueOf(srv.cfg.Options).FieldByName(name).Interface()
				if w := reflect.ValueOf(want).FieldByName(name).Interface(); !reflect.DeepEqual(got, w) {
					t.Fatalf("role %q runs Options.%s = %+v, want %+v", role, name, got, w)
				}
			})
		}
	}
}

// rowBackup names TestStartActsOnOrRefusesEveryOption's standby rows.
const rowBackup = "backup"

// TestNegativeLeaseRefused: a lease is a positive duration or none, and
// Normalized, which every server surface funnels through, refuses a negative
// one by name.
func TestNegativeLeaseRefused(t *testing.T) {
	if _, err := (Options{Lease: -time.Second}).Normalized(); err == nil || !strings.Contains(err.Error(), "lease") {
		t.Fatalf("a negative lease normalized with err %v", err)
	}
}
