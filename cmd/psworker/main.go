// Command psworker runs one training worker that connects to a psserver
// instance over TCP and executes the worker side of the paper's Algorithm 1:
// pull weights, compute gradients on its data shard, push, wait for OK.
//
// Example (two workers, one slower to emulate a weaker GPU):
//
//	psworker -server 127.0.0.1:7070 -id 0 -workers 2
//	psworker -server 127.0.0.1:7070 -id 1 -workers 2 -delay 20ms
//
// Its flags mirror cmd/psserver's where the two sides must agree: -model,
// -classes, -examples, -image-size and -seed describe the shared model and
// dataset; -compress/-topk/-compress-pull select the gradient codec (the
// default "auto" adopts whatever the server speaks, anything else must match
// the server or registration is rejected). The store's shard count is the
// server's alone: a pull is one frame whatever it is.
//
// Pulls are always full: the push a worker waits on before each pull has
// moved the store's version, so the version gate replicas pull through
// (docs/PROTOCOL.md §5a) would skip nothing, and a worker's pull names no
// version.
//
// Fault tolerance: -reconnect 30s redials and rejoins on any connection loss
// (surviving parameter-server restarts) for up to 30s, and -fail-after
// injects a crash for demos. Under a server with a -lease the worker
// heartbeats on its own, every quarter of the lease the server names at
// registration.
//
// Topology: -server is whichever server the worker should reach, and the
// worker asks it what it is before registering. A flat server or a relay
// registers it. A tree's root names the relay covering the worker's id
// (psserver -role relay), falling back to itself when none does; with
// -reconnect, a worker orphaned by a dead relay asks again and re-parents
// instead of failing. A group's coordinator hands over its cluster map: the
// worker routes gradient fragments directly to each shard owner while the
// coordinator keeps making the staleness decisions. A lost data link
// recovers by refetching the map (which is how a standby's promotion reaches
// the worker); a lost coordinator connection fails the run, or with
// -reconnect is rejoined. A dead coordinator is fatal to the group either
// way. A data server refuses the worker, naming the coordinator.
//
// Observability: -metrics-addr starts an admin HTTP listener serving the
// worker-side Prometheus /metrics (pull wait, push round-trip, iteration and
// transport counters), /healthz and net/http/pprof.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"dssp"
)

func main() {
	var (
		server       = flag.String("server", "127.0.0.1:7070", "parameter server address: a flat server, a tree's root or relay, or a group's coordinator (it says which when the worker connects)")
		id           = flag.Int("id", 0, "worker id in [0, workers)")
		workers      = flag.Int("workers", 2, "total number of workers")
		model        = flag.String("model", string(dssp.ModelSmallMLP), "model: small-mlp, small-cnn, alexnet-small, resnet-8 (must match the server)")
		classes      = flag.Int("classes", 4, "number of classes in the synthetic dataset (must match the server)")
		examples     = flag.Int("examples", 512, "number of synthetic training examples (must match the server)")
		imageSize    = flag.Int("image-size", 16, "image size (or feature count for small-mlp; must match the server)")
		batch        = flag.Int("batch", 16, "mini-batch size")
		epochs       = flag.Int("epochs", 5, "number of epochs over this worker's shard")
		delay        = flag.Duration("delay", 0, "artificial per-iteration delay (emulates a slower GPU)")
		compressName = flag.String("compress", dssp.CompressAuto, "gradient codec: auto (adopt the server's), none, fp16, int8, topk")
		topk         = flag.Float64("topk", 0, "fraction of gradient entries the topk codec keeps (0 = default 0.1; must match the server)")
		compressPull = flag.Bool("compress-pull", false, "expect compressed weight pulls (must match the server; implied by -compress auto)")
		adversary    = flag.Float64("adversary", 0, "Byzantine gradient-scale factor for robustness experiments (0 or 1 = honest; e.g. -10 pushes scaled ascent)")
		reconnect    = flag.Duration("reconnect", 0, "redial and rejoin on connection loss (survives server restarts), retrying connecting, rejoining and recovering a group data link this long before giving up, e.g. 30s (0 = connect once)")
		failAfter    = flag.Int("fail-after", 0, "fault injection for demos: crash (drop the connection) before this iteration (0 = never)")
		metricsAddr  = flag.String("metrics-addr", "", "admin HTTP listen address serving worker-side /metrics, /healthz and pprof (empty = off)")
		seed         = flag.Int64("seed", 1, "seed (must match the server)")
	)
	flag.Parse()

	report, err := dssp.RunWorker(dssp.WorkerConfig{
		ServerAddr: *server,
		WorkerID:   *id,
		Workers:    *workers,
		Model:      dssp.Model(*model),
		Dataset: dssp.DatasetConfig{
			Examples: *examples, Classes: *classes, ImageSize: *imageSize, Noise: 0.5, Seed: *seed,
		},
		BatchSize: *batch,
		Epochs:    *epochs,
		Seed:      *seed,
		Delay:     *delay,
		Options: dssp.Options{
			Compression: dssp.Compression{Codec: *compressName, TopK: *topk, Pull: *compressPull},
		},
		Adversary:   *adversary,
		MetricsAddr: *metricsAddr,
		Reconnect:   *reconnect,
		FailAfter:   *failAfter,
	})
	if err != nil {
		log.Fatalf("psworker %d: %v", *id, err)
	}
	if report.Crashed {
		fmt.Printf("worker %d crashed (injected) after %d iterations\n", *id, report.Iterations)
		return
	}
	fmt.Printf("worker %d finished: %d iterations in %v (final mini-batch loss %.4f, %.1f iters/s, codec %s, pushed %.1f KiB, pulled %.1f KiB, %d reconnects)\n",
		*id, report.Iterations, report.Duration.Round(time.Millisecond), report.FinalLoss,
		float64(report.Iterations)/report.Duration.Seconds(), report.Codec,
		float64(report.PushedBytes)/1024, float64(report.PulledBytes)/1024, report.Reconnects)
}
