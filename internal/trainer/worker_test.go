package trainer

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dssp/internal/data"
	"dssp/internal/nn"
	"dssp/internal/ps"
	"dssp/internal/tensor"
)

// The worker loop against a scripted ps.WorkerClient: no server, no
// transport, one injected transport error at a chosen step. Every call the
// loop makes lands in one log, so a case can assert not only the report but
// the order — in particular that an interrupted iteration is redone from a
// fresh pull under the same iteration number.

// call is one client call as the loop made it.
type call struct {
	link int    // which Connect's client, 0-based
	op   string // "pull", "push" or "done"
	it   int    // push only: the iteration number the loop passed
}

// fakeStore is what every fakeLink of one case shares: the weights pulls
// return, the call log, and the one failure to inject.
type fakeStore struct {
	params  []*tensor.Tensor
	replica *nn.Network
	log     []call
	links   []*fakeLink
	pulls   int64 // pull number n returns version 10n

	failOp   string // "", "pull", "push" or "done"
	failIter int    // the 0-based iteration whose pull or push fails
	failed   bool   // the injection fires once
	iter     int    // iterations whose push succeeded so far

	// pushedLive records, per push, whether the gradients handed over were
	// the replica's own tensors.
	pushedLive []bool
	claimed    []int64
}

var errInjected = errors.New("injected transport error")

// errRefused is what a case's rejoin Connect fails with under mode
// "refuses": a route that cannot be reached again, as a dead coordinator.
var errRefused = errors.New("rejoin refused")

// fakeLink is one connection's client.
type fakeLink struct {
	st                     *fakeStore
	id                     int
	pushes, pullsOK        int64
	hbStarted, hbStopped   int
	closed, usedAfterClose bool
}

func (l *fakeLink) record(op string, it int) {
	if l.closed {
		l.usedAfterClose = true
	}
	l.st.log = append(l.st.log, call{link: l.id, op: op, it: it})
}

func (l *fakeLink) inject(op string) bool {
	st := l.st
	if st.failed || st.failOp != op || (op != "done" && st.iter != st.failIter) {
		return false
	}
	st.failed = true
	return true
}

func (l *fakeLink) Pull() ([]*tensor.Tensor, int64, error) {
	l.record("pull", -1)
	if l.inject("pull") {
		return nil, 0, errInjected
	}
	l.pullsOK++
	l.st.pulls++
	return l.st.params, 10 * l.st.pulls, nil
}

func (l *fakeLink) Push(grads []*tensor.Tensor, _ []tensor.Factors, base int64, iteration int, _ bool) error {
	l.record("push", iteration)
	if l.inject("push") {
		return errInjected
	}
	l.pushes++
	l.st.iter++
	l.st.pushedLive = append(l.st.pushedLive, &grads[0].Data()[0] == &l.st.replica.Grads()[0].Data()[0])
	l.st.claimed = append(l.st.claimed, base)
	return nil
}

func (l *fakeLink) Done() error {
	l.record("done", -1)
	if l.inject("done") {
		return errInjected
	}
	return nil
}

func (l *fakeLink) Close() error                               { l.closed = true; return nil }
func (l *fakeLink) Traffic() (pushed, pulled int64)            { return 100 * l.pushes, 7 * l.pullsOK }
func (l *fakeLink) Codec() string                              { return fmt.Sprintf("codec-%d", l.id) }
func (l *fakeLink) PushSlot([]*tensor.Tensor) []*tensor.Tensor { return nil }
func (l *fakeLink) PushFactors() bool                          { return false }
func (l *fakeLink) StartHeartbeats(time.Duration) func() {
	l.hbStarted++
	return func() { l.hbStopped++ }
}

func TestWorkerLoopTable(t *testing.T) {
	const total, mid = 4, 2
	spec := nn.SpecSmallMLP(6, 4, 2)
	train := data.MustSynthetic(data.SyntheticConfig{
		Examples: 16, Classes: 2, Channels: 1, Size: 6, Noise: 0.3, Flat: true, Seed: 3,
	})

	for _, failOp := range []string{"", "pull", "push", "done"} {
		for _, adversarial := range []bool{false, true} {
			for _, mode := range []string{"off", "on", "refuses"} {
				for _, crashAt := range []int{NoCrash, 0, mid, total - 1} {
					name := fmt.Sprintf("fail=%s/adversary=%v/reconnect=%s/crash=%d", failOp, adversarial, mode, crashAt)
					t.Run(name, func(t *testing.T) {
						replica := spec.Build(rand.New(rand.NewSource(1)))
						st := &fakeStore{
							params:   spec.Build(rand.New(rand.NewSource(2))).Params(),
							replica:  replica,
							failOp:   failOp,
							failIter: mid,
						}
						iter, err := data.NewBatchIterator(train, 4, 1)
						if err != nil {
							t.Fatal(err)
						}
						type connectArgs struct {
							rejoin  bool
							version int64
						}
						var connects []connectArgs
						w := Worker{
							Connect: func(rejoin bool, lastVersion int64) (ps.WorkerClient, error) {
								connects = append(connects, connectArgs{rejoin, lastVersion})
								if rejoin && mode == "refuses" {
									return nil, errRefused
								}
								l := &fakeLink{st: st, id: len(st.links)}
								st.links = append(st.links, l)
								return l, nil
							},
							Reconnect:         mode != "off",
							HeartbeatInterval: time.Millisecond,
							Replica:           replica,
							Batches:           iter,
							Iterations:        total,
							CrashAt:           crashAt,
						}
						if adversarial {
							w.Adversary = Adversary{GradScale: -2, LieVersion: true}
						}
						report, err := RunWorker(w)

						// What should have happened, from the case's coordinates.
						// The crash point is checked before the iteration's pull,
						// so a crash at or before the failing iteration pre-empts
						// the failure; a Done failure comes after every crash point.
						failureFires := failOp != "" && (crashAt == NoCrash || (failOp != "done" && crashAt > mid))
						recovers := failureFires && mode == "on"
						crashFires := crashAt != NoCrash && (!failureFires || recovers)
						wantIters, wantErr, wantCrashed := total, error(nil), false
						switch {
						case failureFires && !recovers:
							if failOp != "done" {
								wantIters = mid
							}
							switch {
							case adversarial:
								wantCrashed = true
							case mode == "refuses":
								wantErr = errRefused
							default:
								wantErr = errInjected
							}
						case crashFires:
							wantIters, wantCrashed = crashAt, true
						}
						wantConnects := []connectArgs{{false, 0}}
						if failureFires && mode != "off" {
							// The last version pulled before the connection died:
							// the failing iteration's own pull succeeded unless
							// the pull itself is what failed.
							pulled := int64(total)
							if failOp == "pull" {
								pulled = mid
							} else if failOp == "push" {
								pulled = mid + 1
							}
							wantConnects = append(wantConnects, connectArgs{true, 10 * pulled})
						}

						if !errors.Is(err, wantErr) {
							t.Fatalf("error = %v, want %v", err, wantErr)
						}
						if report.Iterations != wantIters || report.Crashed != wantCrashed {
							t.Errorf("report: %d iterations, crashed=%v; want %d, %v",
								report.Iterations, report.Crashed, wantIters, wantCrashed)
						}
						if fmt.Sprint(connects) != fmt.Sprint(wantConnects) {
							t.Errorf("connect saw (rejoin, lastVersion) %v, want %v", connects, wantConnects)
						}
						wantReconnects := 0
						if recovers {
							wantReconnects = 1
						}
						if report.Reconnects != wantReconnects {
							t.Errorf("Reconnects = %d, want %d", report.Reconnects, wantReconnects)
						}

						// Traffic is summed across every link, codec is the last
						// link's, and every link ended closed with its
						// heartbeats stopped and was never used afterwards.
						var pushed, pulled int64
						for _, l := range st.links {
							p, q := l.Traffic()
							pushed += p
							pulled += q
							if !l.closed || l.hbStarted != 1 || l.hbStopped != 1 || l.usedAfterClose {
								t.Errorf("link %d: closed=%v heartbeats %d/%d usedAfterClose=%v",
									l.id, l.closed, l.hbStarted, l.hbStopped, l.usedAfterClose)
							}
						}
						if report.Pushed != pushed || report.Pulled != pulled {
							t.Errorf("traffic %d/%d, want the sum over %d links %d/%d",
								report.Pushed, report.Pulled, len(st.links), pushed, pulled)
						}
						if want := fmt.Sprintf("codec-%d", len(st.links)-1); report.Codec != want {
							t.Errorf("codec %q, want %q", report.Codec, want)
						}

						// The call log: every iteration is pull then push under
						// its own number; the interrupted one appears twice, the
						// second time from a fresh pull on the new link.
						var want []call
						link := 0
						failing := func() {
							want = append(want, call{link, "pull", -1})
							if failOp == "push" {
								want = append(want, call{link, "push", mid})
							}
						}
						for it := 0; it < wantIters; it++ {
							if it == mid && recovers && failOp != "done" {
								failing()
								link++
							}
							want = append(want, call{link, "pull", -1}, call{link, "push", it})
						}
						if failureFires && !recovers && failOp != "done" {
							failing()
						}
						if wantIters == total {
							want = append(want, call{link, "done", -1})
							if recovers && failOp == "done" {
								want = append(want, call{link + 1, "done", -1})
							}
						}
						if fmt.Sprint(st.log) != fmt.Sprint(want) {
							t.Errorf("calls (link op iteration):\n got %v\nwant %v", st.log, want)
						}

						// An honest worker pushes its live gradients; an adversary
						// a corrupted private clone under a lying base version.
						for i, live := range st.pushedLive {
							if live == adversarial {
								t.Errorf("push %d: live gradients = %v with adversary = %v", i, live, adversarial)
							}
							if lied := st.claimed[i]%10 != 0 || st.claimed[i] > 10*int64(total+2); lied != adversarial {
								t.Errorf("push %d claimed base version %d with adversary = %v", i, st.claimed[i], adversarial)
							}
						}
					})
				}
			}
		}
	}
}

// TestWorkerLoopConnectFailure: a failed first connect is an error for honest
// and adversarial workers alike — there is no run yet to call crashed.
func TestWorkerLoopConnectFailure(t *testing.T) {
	refused := errors.New("connection refused")
	_, err := RunWorker(Worker{
		Connect:   func(bool, int64) (ps.WorkerClient, error) { return nil, refused },
		Adversary: Adversary{SignFlip: true},
		CrashAt:   NoCrash,
	})
	if !errors.Is(err, refused) {
		t.Fatalf("RunWorker returned %v, want the connect error", err)
	}
}

// TestWorkerLoopReconnectFailure: when the rejoin itself fails (not refused:
// failed), the error names both the reconnect failure and its cause.
func TestWorkerLoopReconnectFailure(t *testing.T) {
	spec := nn.SpecSmallMLP(6, 4, 2)
	replica := spec.Build(rand.New(rand.NewSource(1)))
	st := &fakeStore{params: replica.Params(), replica: replica, failOp: "pull"}
	gaveUp := errors.New("gave up")
	_, err := RunWorker(Worker{
		Connect: func(rejoin bool, _ int64) (ps.WorkerClient, error) {
			if rejoin {
				return nil, gaveUp
			}
			return &fakeLink{st: st}, nil
		},
		Reconnect:  true,
		Replica:    replica,
		Iterations: 1,
		CrashAt:    NoCrash,
	})
	if !errors.Is(err, gaveUp) || !strings.Contains(err.Error(), errInjected.Error()) {
		t.Fatalf("RunWorker returned %v, want the reconnect failure naming its cause", err)
	}
}
