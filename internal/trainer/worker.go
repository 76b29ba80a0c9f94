package trainer

import (
	"fmt"
	"time"

	"dssp/internal/data"
	"dssp/internal/nn"
	"dssp/internal/ps"
	"dssp/internal/tensor"
)

// NoCrash is the Worker.CrashAt value of a worker that runs to completion.
const NoCrash = -1

// Worker is one worker's side of a run: how it reaches the parameter store
// and what it computes there. Topology lives entirely in Connect; RunWorker
// is the same loop on a flat server, a relay tree and a server group.
type Worker struct {
	// Connect returns a registered client. The first call passes
	// (false, 0); after a lost connection, with Reconnect set, it is called
	// with (true, the last store version the worker pulled).
	Connect func(rejoin bool, lastVersion int64) (ps.WorkerClient, error)
	// Reconnect makes a transport error a reason to Connect again and redo
	// the interrupted iteration, instead of the end of the run.
	Reconnect bool
	// Replica is the worker's model, borrowed for the run: while it lasts the
	// parameters read the client's pulled weights in place and the gradients
	// may be computed in its push slot, and both are rebound to the replica's
	// own storage on return — the parameters holding the last weights pulled
	// after a run that reached Done, and whatever that storage held before
	// otherwise. Batches is the worker's data shard.
	Replica *nn.Network
	Batches *data.BatchIterator
	// Iterations is how many mini-batches the worker pushes before Done.
	Iterations int
	// Delay is slept after every backward pass, emulating a slower GPU.
	Delay time.Duration
	// Adversary corrupts what the worker pushes. An adversary whose run ends
	// on a connection error — the guard evicted it and closed the socket, its
	// expected fate — is reported as Crashed, not as an error.
	Adversary Adversary
	// CrashAt injects a fault: before starting this 0-based iteration the
	// worker vanishes without a word — no Done, no Leave, like a killed
	// process. NoCrash (any negative value) never does.
	CrashAt int
}

// WorkerReport is what one worker's run came to.
type WorkerReport struct {
	// Iterations is the number of mini-batches whose push was released.
	Iterations int
	// FinalLoss is the last mini-batch's training loss.
	FinalLoss float64
	// Duration is the wall-clock time from the first registration to the end.
	Duration time.Duration
	// PushedBytes and PulledBytes are payload bytes summed over every client
	// the worker used, Reconnects how many it used beyond the first (each a
	// redial and rejoin after a lost connection), and Codec what the last
	// one negotiated (useful when the compression was left on auto).
	PushedBytes, PulledBytes int64
	Reconnects               int
	Codec                    string
	// Crashed reports a run ended by CrashAt or by an adversary's eviction.
	Crashed bool
}

// RunWorker executes the worker side of Algorithm 1: pull the global weights,
// adopt them where they landed, compute gradients on the next mini-batch,
// push them and wait for the release — which, on every iteration but the
// last, brings the next weights along where the route allows it; Done after
// the last one. A transport
// error mid-iteration either ends the run or, with Reconnect, is followed by
// a rejoin and a redo of the same iteration from a fresh pull, so the
// gradient matches the weights it updates. The report is meaningful even
// alongside an error.
func RunWorker(w Worker) (report WorkerReport, err error) {
	var client ps.WorkerClient
	lastVersion := int64(0)

	// link connects; retire folds the client's traffic into the report
	// before discarding it, so bytes moved before a reconnect are not lost.
	// Close without Done is how a crash looks to the server. Close also ends
	// the pull lease the replica reads its parameters through and the push
	// slot it may compute its gradients in, so retire first puts the replica
	// back on its own storage — without reading the leased one: after a Pull
	// that failed half-way, part of it is already gone.
	link := func(rejoin bool) error {
		c, err := w.Connect(rejoin, lastVersion)
		if err == nil {
			client = c
		}
		return err
	}
	retire := func() {
		if client == nil {
			return
		}
		w.Replica.DetachParams(false)
		w.Replica.DetachGrads()
		pushed, pulled := client.Traffic()
		report.PushedBytes += pushed
		report.PulledBytes += pulled
		report.Codec = client.Codec()
		_ = client.Close()
		client = nil
	}
	if err := link(false); err != nil {
		return report, fmt.Errorf("connect: %w", err)
	}
	start := time.Now()
	// The deferred accounting writes the named result, after every return.
	defer func() {
		retire()
		report.Duration = time.Since(start)
	}()

	// lost handles a transport error: nil means a fresh client is in place
	// and the interrupted step should be redone.
	lost := func(cause error) error {
		if !w.Reconnect {
			return cause
		}
		retire()
		if err := link(true); err != nil {
			return fmt.Errorf("reconnect: %w (after %v)", err, cause)
		}
		report.Reconnects++
		return nil
	}
	// fail ends the run on err — as a crash when the worker is an adversary.
	adversarial := w.Adversary.active()
	fail := func(err error) (WorkerReport, error) {
		if adversarial {
			report.Crashed = true
			return report, nil
		}
		return report, err
	}

	factors := make([]tensor.Factors, len(w.Replica.Grads()))
	for report.Iterations < w.Iterations {
		it := report.Iterations
		if it == w.CrashAt {
			report.Crashed = true
			return report, nil
		}
		params, version, err := client.Pull()
		if err == nil {
			lastVersion = version
			// No copy: the tensors are on lease until the next Pull
			// (ps.ClusterClient.Pull), and nothing reads the replica between
			// that Pull starting and this line.
			if err := w.Replica.AdoptParams(params); err != nil {
				return report, err
			}
			x, labels := w.Batches.Next()
			report.FinalLoss, _ = w.Replica.Loss(x, labels, true)
			// The gradients land where the push is sent from when the client
			// has such a place free now (ps.ClusterClient.PushSlot), in the
			// replica's own storage otherwise; asked before every pass,
			// because the place is the receiver's until it releases the last
			// push sent from it. A client whose push encodes a gradient from
			// its factors (ps.ClusterClient.PushFactors) gets the first
			// layer's that way, never computed.
			var pushFactors []tensor.Factors
			if !adversarial {
				if client.PushFactors() {
					pushFactors = factors
				}
				if views := client.PushSlot(w.Replica.Grads()); views != nil {
					if err := w.Replica.AdoptGrads(views); err != nil {
						return report, err
					}
				} else {
					w.Replica.DetachGrads()
				}
			}
			w.Replica.BackwardFactors(pushFactors)
			if w.Delay > 0 {
				time.Sleep(w.Delay)
			}
			// An honest worker pushes the replica's own gradient tensors: the
			// client is done with them when the push returns, and the next
			// Backward overwrites them. An adversary corrupts a private
			// clone, so the corruption never leaks into the replica, and may
			// lie about its base version.
			grads, claimed := w.Replica.Grads(), version
			if adversarial {
				grads = w.Replica.CloneGrads()
				claimed = w.Adversary.corrupt(grads, version)
			}
			// Every push but the last is followed by a Pull, which the push
			// may bring along (ps.ClusterClient.Push); after the last,
			// weights nobody reads would cost a model's bytes.
			err = client.Push(grads, pushFactors, claimed, it, it+1 < w.Iterations)
		}
		if err != nil {
			if err = lost(err); err != nil {
				return fail(err)
			}
			continue
		}
		report.Iterations++
	}
	// The last pull's lease is still live: keep its weights, once, before a
	// failed Done can end it.
	w.Replica.DetachParams(true)
	for {
		err := client.Done()
		if err == nil {
			return report, nil
		}
		if err = lost(err); err != nil {
			return fail(err)
		}
	}
}
