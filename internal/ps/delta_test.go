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

// gateCluster is one server over the in-process transport with a worker that
// pushes and a replica whose pulls are gated on the version it holds. The
// server end of every connection is metered on the server's registry.
type gateCluster struct {
	srv             *Server
	st              *Store
	worker, replica *Client
	listener        *transport.ChanListener
}

func newGateCluster(t *testing.T, shards int, serverCfg func(*ServerConfig)) gateCluster {
	t.Helper()
	st, err := NewStoreSharded(pipelineModel(31), optimizer.NewSGD(0.1), shards)
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
	listener.SetMeter(transport.NewMetrics(srv.Registry()))
	go func() { _ = srv.Serve(listener) }()
	t.Cleanup(func() {
		srv.Stop()
		listener.Close()
	})
	dial := func() transport.Conn {
		conn, err := listener.Dial()
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	worker, err := NewClientCompressed(dial(), 0, compress.Config{Codec: compress.Auto})
	if err != nil {
		t.Fatal(err)
	}
	if err := worker.Register(); err != nil {
		t.Fatal(err)
	}
	replica, err := OpenReplica(dial())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		worker.Close()
		replica.Close()
	})
	return gateCluster{srv: srv, st: st, worker: worker, replica: replica, listener: listener}
}

// push applies one push of fresh gradients through the worker.
func (g gateCluster) push(t *testing.T, rng *rand.Rand, iteration int) {
	t.Helper()
	if err := g.worker.PushAndWait(pipelineGrads(rng, pipelineModel(31)), g.st.Version(), iteration); err != nil {
		t.Fatal(err)
	}
}

// served reads what the server has metered so far: Weights frames sent, and
// the pulls it answered with one Unchanged frame. A frame is metered before
// its reader can see it, so a pull that has returned is counted.
func (g gateCluster) served() (weightsFrames, unchanged float64) {
	m := g.srv.Registry().Snapshot()
	return m[`dssp_transport_frames_total{dir="sent",type="Weights"}`], m["dssp_pull_unchanged_total"]
}

// TestDeltaPullServesCorrectWeightsAcrossUpdates interleaves pushes and
// gated replica pulls and checks every pull returns exactly the store's
// snapshot and version — the ones answered Unchanged included.
func TestDeltaPullServesCorrectWeightsAcrossUpdates(t *testing.T) {
	g := newGateCluster(t, 3, nil)
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 6; round++ {
		// Two pulls per round: from round 1 on, the second is gated.
		for rep := 0; rep < 2; rep++ {
			params, version, err := g.replica.Pull()
			if err != nil {
				t.Fatal(err)
			}
			want, wantVersion := g.st.Snapshot()
			if version != wantVersion {
				t.Fatalf("round %d rep %d: pulled version %d, want %d", round, rep, version, wantVersion)
			}
			if !sameTensors(params, want) {
				t.Fatalf("round %d rep %d: pulled weights diverge from the store snapshot", round, rep)
			}
		}
		g.push(t, rng, round)
	}
	if _, unchanged := g.served(); unchanged != 5 {
		t.Fatalf("%v pulls answered Unchanged, want 5 (every second pull after the first push)", unchanged)
	}
}

// checkGate pins the gate on g's store: a replica that pulls twice with no
// push in between gets one Unchanged frame, no payload bytes, and the same
// tensors and version; after a push it gets one full Weights frame with the
// new values, whatever the store's shard count.
// same reports whether pulled weights match the store's.
func checkGate(t *testing.T, g gateCluster, same func(got, want []*tensor.Tensor) bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	g.push(t, rng, 0) // version 0 never gates
	frames0, unchanged0 := g.served()
	for round := 1; round <= 3; round++ {
		first, version, err := g.replica.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if want, wantVersion := g.st.Snapshot(); version != wantVersion || !same(first, want) {
			t.Fatalf("round %d: full pull returned version %d (store %d) or other weights", round, version, wantVersion)
		}
		firstCopy := make([]*tensor.Tensor, len(first))
		for i, p := range first {
			firstCopy[i] = p.Clone()
		}
		frames1, unchanged1 := g.served()
		if frames1-frames0 != 1 || unchanged1 != unchanged0 {
			t.Fatalf("round %d: pull after a push took %v Weights frames (%v Unchanged), want one full frame",
				round, frames1-frames0, unchanged1-unchanged0)
		}
		_, pulledBefore := g.replica.Traffic()
		again, againVersion, err := g.replica.Pull()
		if err != nil {
			t.Fatal(err)
		}
		frames2, unchanged2 := g.served()
		if frames2-frames1 != 1 || unchanged2-unchanged1 != 1 {
			t.Fatalf("round %d: pull of an unchanged store took %v Weights frames (%v Unchanged), want one Unchanged frame",
				round, frames2-frames1, unchanged2-unchanged1)
		}
		if _, pulled := g.replica.Traffic(); pulled != pulledBefore {
			t.Fatalf("round %d: pull of an unchanged store moved %d payload bytes", round, pulled-pulledBefore)
		}
		if againVersion != version {
			t.Fatalf("round %d: Unchanged pull returned version %d, want %d", round, againVersion, version)
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("round %d: Unchanged pull returned other tensors than the reply it stands for", round)
			}
		}
		if !sameTensors(again, firstCopy) {
			t.Fatalf("round %d: tensors changed under an Unchanged reply", round)
		}
		frames0, unchanged0 = frames2, unchanged2
		g.push(t, rng, round)
	}
}

// TestDeltaPullSkipsUnchangedShardBytes pins the gate on dense pulls.
func TestDeltaPullSkipsUnchangedShardBytes(t *testing.T) {
	checkGate(t, newGateCluster(t, 3, nil), sameTensors)
}

// TestDeltaPullWithCompressedPullPath pins the gate with pull compression
// negotiated: full replies ride the packed cache, Unchanged ones nothing.
func TestDeltaPullWithCompressedPullPath(t *testing.T) {
	g := newGateCluster(t, 2, func(cfg *ServerConfig) {
		cfg.Compression = compress.Config{Codec: compress.FP16, Pull: true}
	})
	checkGate(t, g, func(got, want []*tensor.Tensor) bool {
		for i := range want {
			// fp16 keeps ~3 decimal digits for values of magnitude ~1.
			if !got[i].ApproxEqual(want[i], 2e-3) {
				return false
			}
		}
		return len(got) == len(want)
	})
}

// TestDeltaPullRefusedFallsBackToFullPulls: a peer that ignores the version
// a replica names answers every pull with the full reply, and the replica
// keeps working with full pulls. The peer is scripted: it speaks the
// registration and the one-frame pull reply by hand, and checks the versions
// named.
func TestDeltaPullRefusedFallsBackToFullPulls(t *testing.T) {
	want := pipelineModel(31)
	listener := transport.NewChanListener()
	defer listener.Close()
	const pulls, version = 3, 5
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
			if msg.Type != transport.MsgRegister || !msg.Replica {
				return fmt.Errorf("peer got %+v, want a replica Register", msg)
			}
			if err := conn.Send(transport.Message{Type: transport.MsgRegistered, StoreShards: 2}); err != nil {
				return err
			}
			for i := 0; i < pulls; i++ {
				if msg, err = conn.Recv(); err != nil {
					return err
				}
				named := int64(version)
				if i == 0 {
					named = 0
				}
				if msg.Type != transport.MsgPull || msg.Version != named || msg.Replica || msg.Unchanged {
					return fmt.Errorf("pull %d: peer got %+v, want a plain Pull naming version %d", i, msg, named)
				}
				err := conn.Send(transport.Message{
					Type: transport.MsgWeights, Version: version, Tensors: transport.ToWireOwned(want),
				})
				if err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	conn, err := listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	client, err := OpenReplica(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var bytesPerPull []int64
	var last int64
	for i := 0; i < pulls; i++ {
		params, v, err := client.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if v != version || !sameTensors(params, want) {
			t.Fatalf("pull %d diverged from the peer's weights at version %d (got %d)", i, version, v)
		}
		_, pulled := client.Traffic()
		bytesPerPull = append(bytesPerPull, pulled-last)
		last = pulled
	}
	if bytesPerPull[1] != bytesPerPull[0] || bytesPerPull[2] != bytesPerPull[0] {
		t.Fatalf("an ungated peer's pull sizes changed: %v", bytesPerPull)
	}
	if err := <-peerErr; err != nil {
		t.Fatal(err)
	}
}

// TestNonDeltaSessionPullRepliesStayV1 pins the gated-pull rule of
// docs/PROTOCOL.md §5a: a pull that names no version — every worker's — or
// one the store has moved past is answered with one full frame that carries
// no Unchanged, and a flat server's Registered carries no cluster field. Only a
// pull naming the store's version gets the empty Unchanged reply, whatever
// session sent it.
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

			register := func(worker int) transport.Conn {
				conn, err := listener.Dial()
				if err != nil {
					t.Fatal(err)
				}
				err = conn.Send(transport.Message{Type: transport.MsgRegister, Worker: worker, Codec: compress.Auto})
				if err != nil {
					t.Fatal(err)
				}
				reg, err := conn.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if reg.Type != transport.MsgRegistered || reg.Cluster || reg.MapVersion != 0 || len(reg.Servers) > 0 {
					t.Fatalf("worker %d registered as %+v, want a flat server's Registered", worker, reg)
				}
				if reg.StoreShards != st.Shards() {
					t.Fatalf("registration reported %d shards, store has %d", reg.StoreShards, st.Shards())
				}
				return conn
			}
			conn := register(0)

			// Two pushes: the store is past version 0, which never gates, and
			// past version 1, a version a puller may still hold.
			for i := 0; i < 2; i++ {
				if _, err := st.Apply(pipelineGrads(rand.New(rand.NewSource(int64(4+i))), initial)); err != nil {
					t.Fatal(err)
				}
			}
			for _, named := range []int64{0, 1} {
				if err := conn.Send(transport.Message{Type: transport.MsgPull, Worker: 0, Version: named}); err != nil {
					t.Fatal(err)
				}
				msg, err := conn.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if msg.Type != transport.MsgWeights || msg.Unchanged || msg.Version != 2 || len(msg.Tensors)+len(msg.Packed) != len(initial) {
					t.Fatalf("pull naming version %d: reply is %+v, want one full frame at version 2", named, msg)
				}
			}

			if err := conn.Send(transport.Message{Type: transport.MsgPull, Worker: 0, Version: 2}); err != nil {
				t.Fatal(err)
			}
			msg, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if msg.Type != transport.MsgWeights || !msg.Unchanged || msg.Version != 2 || len(msg.Tensors)+len(msg.Packed) != 0 {
				t.Fatalf("pull naming the store's version got %+v, want one empty Unchanged frame at version 2", msg)
			}
		})
	}
}

// TestDeltaPullSurvivesRejoin pins the gate across a re-registration: the
// replica forgets the version it held — the session it talks to is new, and
// may be a restarted server with other weights at the same version — so its
// first pull after it is full, and the gate resumes from there.
func TestDeltaPullSurvivesRejoin(t *testing.T) {
	g := newGateCluster(t, 2, nil)
	g.push(t, rand.New(rand.NewSource(3)), 0)
	pulled := func() int64 {
		t.Helper()
		_, before := g.replica.Traffic()
		params, _, err := g.replica.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := g.st.Snapshot(); !sameTensors(params, want) {
			t.Fatal("pull diverged from the snapshot")
		}
		_, after := g.replica.Traffic()
		return after - before
	}
	if pulled() == 0 {
		t.Fatal("first pull moved no bytes")
	}
	if n := pulled(); n != 0 {
		t.Fatalf("gated pull moved %d bytes", n)
	}
	if err := g.replica.rejoin(g.st.Version()); err != nil {
		t.Fatal(err)
	}
	if pulled() == 0 {
		t.Fatal("first pull after rejoin moved no bytes: the replica still named the version it held before")
	}
	if n := pulled(); n != 0 {
		t.Fatalf("second pull after rejoin moved %d bytes; the gate should have answered", n)
	}
}
