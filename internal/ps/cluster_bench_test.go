package ps

import (
	"fmt"
	"sync"
	"testing"

	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// startBenchGroup stands up a coordinator plus `servers` data servers over
// the in-process channel transport — the same topology the trainer's cluster
// mode builds — and returns a cluster-client connector and a teardown.
func startBenchGroup(b *testing.B, workers, servers int) (connect func(w int) *ClusterClient, stop func()) {
	b.Helper()
	initial := benchModel()
	var mu sync.Mutex
	listeners := make(map[string]*transport.ChanListener)
	dial := func(addr string) (transport.Conn, error) {
		mu.Lock()
		l := listeners[addr]
		mu.Unlock()
		if l == nil {
			return nil, fmt.Errorf("no bench server at %s", addr)
		}
		return l.Dial()
	}
	var srvs []*Server
	stop = func() {
		for _, s := range srvs {
			s.Stop()
		}
	}
	start := func(cfg ServerConfig) string {
		l := transport.NewChanListener()
		mu.Lock()
		listeners[l.Addr()] = l
		mu.Unlock()
		srv, err := Start(cfg, initial, optimizer.NewSGDMomentum(0.01, 0.9), l, dial)
		if err != nil {
			stop()
			b.Fatal(err)
		}
		srvs = append(srvs, srv)
		return l.Addr()
	}
	coordAddr := start(ServerConfig{Workers: workers, Policy: core.MustNewASP(workers),
		Cluster: ClusterConfig{Role: RoleCoordinator, Servers: servers}})
	for i := 0; i < servers; i++ {
		start(ServerConfig{Workers: workers,
			Cluster: ClusterConfig{Role: RoleData, Coordinator: coordAddr, Index: i}})
	}
	connect = func(w int) *ClusterClient {
		c, err := NewClusterClient(dial, coordAddr, w, ClusterClientConfig{})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	return connect, stop
}

// BenchmarkClusterPushPull measures full push round trips (gradient
// fragments to every shard owner, the synchronization push to the
// coordinator, release waits) with four concurrent workers against a
// 1-server and a 2-server group, one pull per four pushes mixed in. The
// servers=2/servers=1 ratio is the tentpole's aggregate-throughput claim:
// with real parallelism the fan-out splits the apply work across stores.
// On a single-CPU host (this repo's CI container reports nproc=1) the two
// variants time-share one core, so the recorded baseline mostly reflects
// the added routing overhead — treat the trajectory, not the ratio, as the
// signal there.
func BenchmarkClusterPushPull(b *testing.B) {
	const workers = 4
	for _, servers := range []int{1, 2} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			connect, stop := startBenchGroup(b, workers, servers)
			defer stop()
			clients := make([]*ClusterClient, workers)
			grads := make([][]*tensor.Tensor, workers)
			for w := range clients {
				clients[w] = connect(w)
				grads[w] = benchGrads()
			}
			defer func() {
				for _, c := range clients {
					_ = c.Close()
				}
			}()
			runConcurrent(b, workers, func(w, i int) {
				if i%4 == 0 {
					if _, _, err := clients[w].Pull(); err != nil {
						b.Error(err)
						return
					}
				}
				if err := clients[w].PushAndWait(grads[w], 0, i); err != nil {
					b.Error(err)
				}
			})
		})
	}
}
