package main

import (
	"time"

	"dssp/internal/compress"
	"dssp/internal/optimizer"
	"dssp/internal/ps"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// calibrationBudget bounds each calibration loop: long enough for a stable
// mean of a sub-millisecond operation, short enough that six of them stay a
// small tail on a repetition.
const calibrationBudget = 60 * time.Millisecond

// timeLoop calls fn until calibrationBudget is spent (at least three times)
// and returns the mean seconds per call.
func timeLoop(fn func()) float64 {
	fn() // warm caches and lazy allocations
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < calibrationBudget {
		fn()
		n++
	}
	return time.Since(start).Seconds() / float64(n)
}

// calibrate times each layer's public entry points alone, on the traced
// run's own tensors, after the servers have stopped: the uncontended floor
// the in-run numbers are read against. A calibration that cannot run (no
// codec on this workload, a listener that failed) leaves its metrics at 0.
func (t *tracer) calibrate(out map[string]float64) {
	t.replayPolicy(out)

	a, b, dst := tensor.Full(0.5, 128, 128), tensor.Full(0.25, 128, 128), tensor.New(128, 128)
	out["tensor.matmul128_ms"] = 1000 * timeLoop(func() { tensor.MatMulInto(dst, a, b) })

	grads, params := t.lastGrads, t.lastParam
	if grads == nil {
		return
	}

	step := optimizer.NewSGD(1e-6)
	next := cloneAll(params)
	out["optimizer.step_ms"] = 1000 * timeLoop(func() { step.StepInto(next, params, [][]*tensor.Tensor{grads}) })

	if store, err := ps.NewStoreSharded(cloneAll(params), optimizer.NewSGD(1e-6), 0); err == nil {
		out["ps.store_apply_solo_ms"] = 1000 * timeLoop(func() { _, _ = store.Apply(grads) })
		store.Close()
	}

	push := transport.Message{Type: transport.MsgPush, Tensors: transport.ToWireOwned(grads)}
	weights := transport.Message{Type: transport.MsgWeights, Tensors: transport.ToWireOwned(params), Total: len(params)}
	if cc := codecConfig(t.w.Compression); cc.Enabled() {
		if comp, err := compress.NewCompressor(cc); err == nil {
			var packed []compress.Packed
			out["compress.encode_ms"] = 1000 * timeLoop(func() { packed = comp.Compress(grads) })
			var scratch []*tensor.Tensor
			out["compress.decode_ms"] = 1000 * timeLoop(func() { scratch, _ = compress.DecompressAllReuse(packed, scratch) })
			dense, wire := 0, 0
			for i, p := range packed {
				dense += 4 * grads[i].Size()
				wire += p.WireSize()
			}
			out["compress.ratio"] = float64(dense) / float64(wire)
			push = transport.Message{Type: transport.MsgPush, Codec: cc.Codec, Packed: packed}
			if cc.Pull {
				weights = transport.Message{Type: transport.MsgWeights, Codec: cc.Codec, Packed: compress.Pack(params, cc), Total: len(params)}
			}
		}
	}
	t.frameTimes(out, push, weights)
}

func cloneAll(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// frameTimes measures a bench-owned loopback wire pair: the time from Send
// of a workload-sized Push, Weights or heartbeat frame until the peer has
// received it and its one-frame acknowledgement is back.
func (t *tracer) frameTimes(out map[string]float64, push, weights transport.Message) {
	l, err := transport.ListenWire("127.0.0.1:0", transport.WireBinary)
	if err != nil {
		return
	}
	defer l.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
			if conn.Send(transport.Message{Type: transport.MsgOK}) != nil {
				return
			}
		}
	}()
	conn, err := transport.DialWire(l.Addr(), transport.WireBinary)
	if err != nil {
		l.Close()
		<-echoed
		return
	}
	roundTrip := func(m transport.Message) func() {
		return func() {
			if conn.Send(m) == nil {
				_, _ = conn.Recv()
			}
		}
	}
	out["transport.push_frame_ms"] = 1000 * timeLoop(roundTrip(push))
	out["transport.weights_frame_ms"] = 1000 * timeLoop(roundTrip(weights))
	out["transport.small_rtt_us"] = 1e6 * timeLoop(roundTrip(transport.Message{Type: transport.MsgHeartbeat}))
	conn.Close()
	<-echoed
}
