package ps

import (
	"fmt"
	"math/rand"
	"testing"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// deltaTestCluster wires one server and one delta-requesting client over the
// in-process transport.
func deltaTestCluster(t *testing.T, shards int, serverCfg func(*ServerConfig), clientDelta bool) (*Server, *Store, *Client, *transport.ChanListener) {
	t.Helper()
	initial := pipelineModel(31)
	st, err := NewStoreSharded(initial, optimizer.NewSGD(0.1), shards)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{Workers: 1, Policy: core.MustNewASP(1), Store: st}
	if serverCfg != nil {
		serverCfg(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	listener := transport.NewChanListener()
	go func() { _ = srv.Serve(listener) }()
	t.Cleanup(func() {
		srv.Stop()
		listener.Close()
	})
	conn, err := listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	var client *Client
	if cfg.Compression.Enabled() {
		client, err = NewClientCompressed(conn, 0, compress.Config{Codec: compress.Auto})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		client = NewClient(conn, 0)
	}
	client.SetDeltaPull(clientDelta)
	if err := client.Register(); err != nil {
		t.Fatal(err)
	}
	return srv, st, client, listener
}

// TestDeltaPullServesCorrectWeightsAcrossUpdates interleaves pushes and
// pulls and checks every delta pull returns exactly the store's snapshot —
// cached unchanged shards included.
func TestDeltaPullServesCorrectWeightsAcrossUpdates(t *testing.T) {
	_, st, client, _ := deltaTestCluster(t, 3, nil, true)
	if !client.DeltaPull() {
		t.Fatal("server did not grant delta pulls")
	}
	rng := rand.New(rand.NewSource(2))
	model := pipelineModel(31)
	for round := 0; round < 6; round++ {
		// Two pulls per round: the second hits the all-unchanged path.
		for rep := 0; rep < 2; rep++ {
			params, version, err := client.Pull()
			if err != nil {
				t.Fatal(err)
			}
			want, wantVersion := st.Snapshot()
			if version != wantVersion {
				t.Fatalf("round %d rep %d: pulled version %d, want %d", round, rep, version, wantVersion)
			}
			if !sameTensors(params, want) {
				t.Fatalf("round %d rep %d: pulled weights diverge from the store snapshot", round, rep)
			}
		}
		if err := client.PushAndWait(pipelineGrads(rng, model), int64(round), round); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeltaPullSkipsUnchangedShardBytes pins the acceptance criterion: for
// an unchanged-shard workload (repeated pulls with no pushes in between),
// delta pulls move at least 2x fewer payload bytes than full pulls.
func TestDeltaPullSkipsUnchangedShardBytes(t *testing.T) {
	const pulls = 10
	run := func(delta bool) int64 {
		_, _, client, _ := deltaTestCluster(t, 3, nil, delta)
		for i := 0; i < pulls; i++ {
			if _, _, err := client.Pull(); err != nil {
				t.Fatal(err)
			}
		}
		_, pulled := client.Traffic()
		return pulled
	}
	full := run(false)
	deltaed := run(true)
	if deltaed <= 0 || full <= 0 {
		t.Fatalf("degenerate byte counts: full %d, delta %d", full, deltaed)
	}
	if full < 2*deltaed {
		t.Fatalf("delta pulls moved %d bytes vs %d full — want at least a 2x reduction on an unchanged workload",
			deltaed, full)
	}
	t.Logf("unchanged-shard workload over %d pulls: full %d bytes, delta %d bytes (%.1fx)",
		pulls, full, deltaed, float64(full)/float64(deltaed))
}

// TestDeltaPullWithCompressedPullPath runs the same correctness check with
// pull compression negotiated, so Unchanged gating rides the packed cache.
func TestDeltaPullWithCompressedPullPath(t *testing.T) {
	_, st, client, _ := deltaTestCluster(t, 2, func(cfg *ServerConfig) {
		cfg.Compression = compress.Config{Codec: compress.FP16, Pull: true}
	}, true)
	if !client.DeltaPull() {
		t.Fatal("server did not grant delta pulls")
	}
	rng := rand.New(rand.NewSource(6))
	model := pipelineModel(31)
	var lastPulled int64
	for round := 0; round < 4; round++ {
		first, _, err := client.Pull()
		if err != nil {
			t.Fatal(err)
		}
		firstCopy := make([]*tensor.Tensor, len(first))
		for i, p := range first {
			firstCopy[i] = p.Clone()
		}
		_, afterFirst := client.Traffic()
		again, _, err := client.Pull()
		if err != nil {
			t.Fatal(err)
		}
		_, afterSecond := client.Traffic()
		if !sameTensors(firstCopy, again) {
			t.Fatalf("round %d: repeated pull of an unchanged store returned different weights", round)
		}
		if afterSecond != afterFirst {
			t.Fatalf("round %d: unchanged compressed pull still moved %d payload bytes", round, afterSecond-afterFirst)
		}
		lastPulled = afterSecond
		if err := client.PushAndWait(pipelineGrads(rng, model), st.Version(), round); err != nil {
			t.Fatal(err)
		}
	}
	if lastPulled == 0 {
		t.Fatal("no pull traffic recorded at all")
	}
}

// TestDeltaPullRefusedFallsBackToFullPulls pins the negotiation downgrade: a
// peer that answers a delta-pull request without the grant (an older build —
// this server always grants) gets plain pull requests carrying no versions,
// and the client keeps issuing full pulls that work. The peer is scripted:
// it speaks the registration and the two-chunk pull reply by hand.
func TestDeltaPullRefusedFallsBackToFullPulls(t *testing.T) {
	want := pipelineModel(31)
	listener := transport.NewChanListener()
	defer listener.Close()
	const pulls = 3
	peerErr := make(chan error, 1)
	go func() {
		peerErr <- func() error {
			conn, err := listener.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			msg, err := conn.Recv()
			if err != nil {
				return err
			}
			if msg.Type != transport.MsgRegister || !msg.DeltaPull {
				return fmt.Errorf("peer got %v (DeltaPull=%v), want a Register asking for delta pulls", msg.Type, msg.DeltaPull)
			}
			if err := conn.Send(transport.Message{Type: transport.MsgRegistered, StoreShards: 2}); err != nil {
				return err
			}
			for i := 0; i < pulls; i++ {
				if msg, err = conn.Recv(); err != nil {
					return err
				}
				if msg.Type != transport.MsgPull || len(msg.PullVersions) != 0 {
					return fmt.Errorf("pull %d: peer got %v with %d shard versions, want a plain Pull", i, msg.Type, len(msg.PullVersions))
				}
				for shard, span := range [][2]int{{0, 2}, {2, 3}} {
					err := conn.Send(transport.Message{
						Type: transport.MsgWeights, Shard: shard, Shards: 2, Total: len(want),
						Base: span[0], Tensors: transport.ToWireOwned(want[span[0]:span[1]]),
					})
					if err != nil {
						return err
					}
				}
			}
			return nil
		}()
	}()
	conn, err := listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(conn, 0)
	defer client.Close()
	client.SetDeltaPull(true)
	if err := client.Register(); err != nil {
		t.Fatal(err)
	}
	if client.DeltaPull() {
		t.Fatal("client believes delta pulls are on against a refusing peer")
	}
	var bytesPerPull []int64
	var last int64
	for i := 0; i < pulls; i++ {
		params, _, err := client.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if !sameTensors(params, want) {
			t.Fatalf("pull %d diverged from the peer's weights", i)
		}
		_, pulled := client.Traffic()
		bytesPerPull = append(bytesPerPull, pulled-last)
		last = pulled
	}
	if bytesPerPull[1] != bytesPerPull[0] || bytesPerPull[2] != bytesPerPull[0] {
		t.Fatalf("refused delta negotiation still changed pull sizes: %v", bytesPerPull)
	}
	if err := <-peerErr; err != nil {
		t.Fatal(err)
	}
}

// recvWeightsChunks reads one chunked pull reply — exactly shards Weights
// messages — off a raw connection.
func recvWeightsChunks(t *testing.T, conn transport.Conn, shards int) []transport.Message {
	t.Helper()
	chunks := make([]transport.Message, 0, shards)
	for i := 0; i < shards; i++ {
		msg, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Type != transport.MsgWeights {
			t.Fatalf("chunk %d: got %v, want Weights", i, msg.Type)
		}
		chunks = append(chunks, msg)
	}
	return chunks
}

// TestNonDeltaSessionPullRepliesStayV1 pins the cross-version interop rule of
// docs/PROTOCOL.md §5a: pull replies to a session that never negotiated
// delta pulls must carry no v2 wire field — even after a push has moved
// every shard's publication version — because any v2 field promotes the
// frame to protocol version 2 and a v1-only binary decoder rejects such
// frames outright. A second session that did negotiate shows the gate
// discriminates per session instead of dropping ShardVersion globally.
func TestNonDeltaSessionPullRepliesStayV1(t *testing.T) {
	for _, tc := range []struct {
		name       string
		compressed bool
	}{{"plain", false}, {"compressedPull", true}} {
		t.Run(tc.name, func(t *testing.T) {
			initial := pipelineModel(13)
			st, err := NewStoreSharded(initial, optimizer.NewSGD(0.1), 3)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ServerConfig{Workers: 2, Policy: core.MustNewASP(2), Store: st}
			if tc.compressed {
				cfg.Compression = compress.Config{Codec: compress.FP16, Pull: true}
			}
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			listener := transport.NewChanListener()
			go func() { _ = srv.Serve(listener) }()
			t.Cleanup(func() {
				srv.Stop()
				listener.Close()
			})

			register := func(worker int, delta bool) transport.Conn {
				conn, err := listener.Dial()
				if err != nil {
					t.Fatal(err)
				}
				err = conn.Send(transport.Message{
					Type: transport.MsgRegister, Worker: worker,
					Codec: compress.Auto, DeltaPull: delta,
				})
				if err != nil {
					t.Fatal(err)
				}
				reg, err := conn.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if reg.Type != transport.MsgRegistered || reg.DeltaPull != delta {
					t.Fatalf("worker %d registered as %+v, want Registered with DeltaPull=%v", worker, reg, delta)
				}
				if reg.StoreShards != st.Shards() {
					t.Fatalf("registration reported %d shards, store has %d", reg.StoreShards, st.Shards())
				}
				return conn
			}
			v1conn := register(0, false)
			v2conn := register(1, true)

			// A push moves every shard's publication version past zero — the
			// state in which an ungated ShardVersion would leak onto the wire.
			if _, err := st.Apply(pipelineGrads(rand.New(rand.NewSource(4)), initial)); err != nil {
				t.Fatal(err)
			}

			if err := v1conn.Send(transport.Message{Type: transport.MsgPull, Worker: 0}); err != nil {
				t.Fatal(err)
			}
			for _, msg := range recvWeightsChunks(t, v1conn, st.Shards()) {
				if msg.ShardVersion != 0 || msg.Unchanged || len(msg.PullVersions) > 0 {
					t.Fatalf("non-delta session's chunk for shard %d carries v2 fields: %+v", msg.Shard, msg)
				}
				if v := transport.FrameVersion(msg); v != 1 {
					t.Fatalf("non-delta session's chunk for shard %d would encode as a version-%d frame; a v1-only peer rejects it", msg.Shard, v)
				}
			}

			if err := v2conn.Send(transport.Message{Type: transport.MsgPull, Worker: 1}); err != nil {
				t.Fatal(err)
			}
			for _, msg := range recvWeightsChunks(t, v2conn, st.Shards()) {
				if msg.ShardVersion == 0 {
					t.Fatalf("negotiated session's chunk for shard %d lost its ShardVersion — delta gating has no version feed", msg.Shard)
				}
			}
		})
	}
}

// TestDeltaPullSurvivesRejoin pins delta behaviour across a reconnect: a
// rejoining worker (fresh connection, fresh session — the real reconnect
// flow) re-negotiates the grant, its first pull is necessarily full, and
// the cached rounds resume correctly afterwards.
func TestDeltaPullSurvivesRejoin(t *testing.T) {
	srv, st, client, listener := deltaTestCluster(t, 2, nil, true)
	if _, _, err := client.Pull(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Pull(); err != nil { // cached round
		t.Fatal(err)
	}
	client.Close()

	// Reconnect the way remote.RunWorker does: new connection, new client,
	// MsgRejoin.
	conn, err := listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	rejoined := NewClient(conn, 0)
	rejoined.SetDeltaPull(true)
	if err := rejoined.Rejoin(st.Version()); err != nil {
		t.Fatal(err)
	}
	if !rejoined.DeltaPull() {
		t.Fatal("rejoin lost the delta-pull grant")
	}
	params, _, err := rejoined.Pull()
	if err != nil {
		t.Fatal(err)
	}
	_, afterFirst := rejoined.Traffic()
	if afterFirst == 0 {
		t.Fatal("first pull after rejoin moved no bytes; a stale cache must have answered")
	}
	want, _ := st.Snapshot()
	if !sameTensors(params, want) {
		t.Fatal("post-rejoin pull diverged from the snapshot")
	}
	if _, _, err := rejoined.Pull(); err != nil {
		t.Fatal(err)
	}
	_, afterSecond := rejoined.Traffic()
	if afterSecond != afterFirst {
		t.Fatalf("second pull after rejoin moved %d bytes; the rebuilt cache should have answered", afterSecond-afterFirst)
	}
	if srv.Rejoins() != 1 {
		t.Fatalf("server counted %d rejoins, want 1", srv.Rejoins())
	}
}
