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
// the field in force, or refuses it by name. The refusals are the coordinator's
// Guard and Checkpoint, and nothing else; a field added to Options without a
// row here fails the test.
func TestStartActsOnOrRefusesEveryOption(t *testing.T) {
	set := map[string]func(*Options){
		"Shards":           func(o *Options) { o.Shards = 2 },
		"Compression":      func(o *Options) { o.Compression = compress.Config{Codec: compress.FP16} },
		"Aggregator":       func(o *Options) { o.Aggregator = AggregatorConfig{Kind: AggClipped, ClipNorm: 1} },
		"Guard":            func(o *Options) { o.Guard = GuardConfig{Enabled: true} },
		"Elastic":          func(o *Options) { o.Elastic = true },
		"HeartbeatTimeout": func(o *Options) { o.HeartbeatTimeout = time.Second },
		"Checkpoint":       func(o *Options) { o.Checkpoint = CheckpointConfig{Dir: t.TempDir()} },
	}
	refused := map[[2]string]bool{{RoleCoordinator, "Guard"}: true, {RoleCoordinator, "Checkpoint"}: true}
	noPeer := func(string) (transport.Conn, error) { return nil, errors.New("no peer") }
	fields := reflect.TypeOf(Options{})
	for _, role := range []string{"", RoleCoordinator, RoleData, RoleBackup} {
		for i := 0; i < fields.NumField(); i++ {
			name := fields.Field(i).Name
			t.Run("role="+role+"/"+name, func(t *testing.T) {
				apply := set[name]
				if apply == nil {
					t.Fatalf("no row sets Options.%s", name)
				}
				cfg := ServerConfig{Workers: 1, Policy: core.MustNewASP(1),
					Cluster: ClusterConfig{Role: role, Coordinator: "coordinator", Servers: 2, Primary: "primary"}}
				apply(&cfg.Options)
				srv, err := Start(cfg, seededModel(25), clusterOpt(), transport.NewChanListener(), noPeer)
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
