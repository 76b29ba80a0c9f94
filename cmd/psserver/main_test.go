package main

import (
	"bytes"
	"flag"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dssp"
)

// flat is the flat server a bare command line describes.
func flat() dssp.ServerConfig {
	return dssp.ServerConfig{
		Addr:         ":7070",
		Workers:      2,
		Sync:         dssp.Sync{Paradigm: dssp.DSSP, Staleness: 3, Range: 12},
		Model:        dssp.ModelSmallMLP,
		Dataset:      dssp.DatasetConfig{Examples: 512, Classes: 4, ImageSize: 16, Noise: 0.5, Seed: 1},
		LearningRate: 0.1,
		Options: dssp.Options{
			Aggregator:       dssp.Aggregator{Kind: dssp.AggregateSum},
			HeartbeatTimeout: 5 * time.Second,
		},
		Seed: 1,
	}
}

// member is a group member's server: a flat one without the fields its role
// has no flag for, which keep their zero value.
func member(cluster dssp.ClusterOptions) dssp.ServerConfig {
	s := flat()
	s.Cluster = cluster
	if cluster.Role == dssp.RoleCoordinator {
		s.LearningRate = 0
	} else {
		s.Sync, s.Dataset.Examples = dssp.Sync{}, 0
	}
	return s
}

// TestShippedCommandLinesParse parses the psserver command lines of the
// package comment, README, scripts/cli_smoke.sh and the verification recipe.
func TestShippedCommandLinesParse(t *testing.T) {
	with := func(s dssp.ServerConfig, edit func(*dssp.ServerConfig)) dssp.ServerConfig {
		edit(&s)
		return s
	}
	for _, tc := range []struct {
		args      string
		server    dssp.ServerConfig
		relay     dssp.RelayConfig
		traceDump bool
	}{
		{
			args:   "-addr :7070 -workers 2 -paradigm DSSP -staleness 3 -range 12",
			server: flat(),
		},
		{
			args: "-addr 127.0.0.1:7171 -workers 2 -paradigm DSSP -staleness 1 -range 4 -shards 3",
			server: with(flat(), func(s *dssp.ServerConfig) {
				s.Addr, s.Shards, s.Sync.Staleness, s.Sync.Range = "127.0.0.1:7171", 3, 1, 4
			}),
		},
		{
			args: "-paradigm SSP -staleness 2 -seed 9 -momentum 0.9 -trace-dump",
			server: with(flat(), func(s *dssp.ServerConfig) {
				s.Sync.Paradigm, s.Sync.Staleness, s.Momentum = dssp.SSP, 2, 0.9
				s.Seed, s.Dataset.Seed = 9, 9
			}),
			traceDump: true,
		},
		{
			args: "-addr 127.0.0.1:17170 -workers 2 -shards 3 -examples 17",
			server: with(flat(), func(s *dssp.ServerConfig) {
				s.Addr, s.Shards, s.Dataset.Examples = "127.0.0.1:17170", 3, 17
			}),
		},
		{
			args: "-addr :7070 -workers 4 -metrics-addr 127.0.0.1:9090",
			server: with(flat(), func(s *dssp.ServerConfig) {
				s.Workers, s.MetricsAddr = 4, "127.0.0.1:9090"
			}),
		},
		{
			args: "-addr :7070 -role coordinator -cluster-servers 2 -shards 4 -workers 2",
			server: with(member(dssp.ClusterOptions{Role: dssp.RoleCoordinator, Servers: 2}), func(s *dssp.ServerConfig) {
				s.Shards = 4
			}),
		},
		{
			// Parses: the coordinator's refusal of -guard is ps.Start's.
			args: "-addr 127.0.0.1:17198 -role coordinator -cluster-servers 2 -workers 2 -guard",
			server: with(member(dssp.ClusterOptions{Role: dssp.RoleCoordinator, Servers: 2}), func(s *dssp.ServerConfig) {
				s.Addr, s.Guard.Enabled = "127.0.0.1:17198", true
			}),
		},
		{
			args: "-addr 127.0.0.1:17181 -role data -peers 127.0.0.1:17180 -cluster-servers 2 -cluster-index 1 -workers 2 -shards 4",
			server: with(member(dssp.ClusterOptions{Role: dssp.RoleData, Coordinator: "127.0.0.1:17180", Servers: 2, Index: 1}), func(s *dssp.ServerConfig) {
				s.Addr, s.Shards = "127.0.0.1:17181", 4
			}),
		},
		{
			args: "-addr :7103 -role backup -peers 127.0.0.1:7070 -cluster-servers 2 -cluster-index 0 -shards 4 -primary 127.0.0.1:7101 -workers 2",
			server: with(member(dssp.ClusterOptions{Role: dssp.RoleBackup, Coordinator: "127.0.0.1:7070", Servers: 2, Primary: "127.0.0.1:7101"}), func(s *dssp.ServerConfig) {
				s.Addr, s.Shards = ":7103", 4
			}),
		},
		{
			args:   "-addr 127.0.0.1:17191 -role relay -parent 127.0.0.1:17190 -fanout 2",
			server: dssp.ServerConfig{Cluster: dssp.ClusterOptions{Role: roleRelay}},
			relay:  dssp.RelayConfig{Addr: "127.0.0.1:17191", Parent: "127.0.0.1:17190", Fanout: 2, HeartbeatTimeout: 5 * time.Second},
		},
		{
			args:   "-role=relay -parent=127.0.0.1:7070 -compress fp16 -advertise 10.0.0.2:7071",
			server: dssp.ServerConfig{Cluster: dssp.ClusterOptions{Role: roleRelay}},
			relay: dssp.RelayConfig{Addr: ":7070", Advertise: "10.0.0.2:7071", Parent: "127.0.0.1:7070", Fanout: 4,
				Compression: dssp.Compression{Codec: dssp.CompressFP16}, HeartbeatTimeout: 5 * time.Second},
		},
	} {
		var out bytes.Buffer
		inv, err := parse(strings.Fields(tc.args), &out)
		if err != nil {
			t.Errorf("psserver %s: %v\n%s", tc.args, err, out.String())
			continue
		}
		if want := (invocation{tc.server, tc.relay, tc.traceDump}); !reflect.DeepEqual(*inv, want) {
			t.Errorf("psserver %s:\n got %+v\nwant %+v", tc.args, *inv, want)
		}
	}
}

// TestRoleRefusesFlagsItDoesNotRead: a flag outside the role's set fails the
// parse and the refusal names it; so do an unknown role, a stray argument,
// and a -role that is another flag's value.
func TestRoleRefusesFlagsItDoesNotRead(t *testing.T) {
	for _, tc := range []struct{ args, names string }{
		{"-parent 127.0.0.1:17398 -fanout 2 -workers 2", "not defined: -parent"},
		{"-role coordinator -cluster-servers 2 -cluster-index 1 -primary 1.2.3.4:1 -fanout 3", "not defined: -cluster-index"},
		{"-role relay -workers 8 -paradigm BSP -model resnet-8", "not defined: -workers"},
		{"-role relay -parent 127.0.0.1:17199 -guard", "not defined: -guard"},
		{"-role data -peers 127.0.0.1:7070 -cluster-servers 2 -paradigm BSP", "not defined: -paradigm"},
		{"-role coordinator -cluster-servers 2 -lr 0.5", "not defined: -lr"},
		{"-role data -peers 127.0.0.1:7070 -cluster-servers 2 -primary 127.0.0.1:7101", "not defined: -primary"},
		{"-role relais -parent 127.0.0.1:7070", `unknown -role "relais"`},
		{"-workers 2 stray -guard", `unexpected argument "stray"`},
		{"-advertise -role=relay -parent 127.0.0.1:7070", "-role must be given as a flag"},
		{"-workers 2 -backups 2", "not defined: -backups"},
		{"-workers 2 -paradigm BackupBSP", `unknown paradigm "BackupBSP"`},
	} {
		var out bytes.Buffer
		if _, err := parse(strings.Fields(tc.args), &out); err == nil {
			t.Errorf("psserver %s parsed", tc.args)
		} else if !strings.Contains(out.String(), tc.names) {
			t.Errorf("psserver %s: refusal does not name %s:\n%s", tc.args, tc.names, out.String())
		}
	}
}

// TestRoleFlagSets pins each role's flag set, and that together they are
// every psserver flag: a flag dropped from every role fails here.
func TestRoleFlagSets(t *testing.T) {
	every := []string{"role", "addr", "metrics-addr", "compress", "topk", "compress-pull", "heartbeat-timeout"}
	server := append(slices.Clone(every), "workers", "model", "classes", "image-size", "seed", "shards",
		"trace-every", "trace-dump", "aggregator", "clip-norm", "guard", "elastic", "checkpoint-dir", "checkpoint-every")
	policy := []string{"paradigm", "staleness", "range", "enforce-bound", "examples"}
	store := []string{"lr", "momentum"}
	group := []string{"cluster-servers", "peers", "cluster-index", "advertise"}
	want := map[string][]string{
		"":                   slices.Concat(server, policy, store),
		dssp.RoleCoordinator: slices.Concat(server, policy, []string{"cluster-servers"}),
		dssp.RoleData:        slices.Concat(server, store, group),
		dssp.RoleBackup:      slices.Concat(server, store, group, []string{"primary"}),
		roleRelay:            slices.Concat(every, []string{"advertise", "parent", "fanout"}),
	}
	union := map[string]bool{}
	for role, names := range want {
		_, fs := roleFlags(role)
		var got []string
		fs.VisitAll(func(f *flag.Flag) {
			got = append(got, f.Name)
			union[f.Name] = true
		})
		slices.Sort(names)
		if !slices.Equal(got, names) {
			t.Errorf("role %q reads %v, want %v", role, got, names)
		}
	}
	// The 38 flags psserver had when every role parsed one set, but the two
	// replication knobs that became constants and -backups, which went with
	// the backup-worker baseline.
	all := strings.Fields(`addr workers paradigm staleness range enforce-bound model classes
		examples image-size lr momentum shards compress topk compress-pull aggregator clip-norm guard
		elastic heartbeat-timeout checkpoint-dir checkpoint-every metrics-addr trace-every trace-dump seed
		role peers parent fanout cluster-servers cluster-index advertise primary`)
	if len(all) != 35 || len(union) != len(all) {
		t.Fatalf("the role sets hold %d flags, want %d", len(union), len(all))
	}
	for _, name := range all {
		if !union[name] {
			t.Errorf("no role reads -%s", name)
		}
	}
}
