package transport

import (
	"math/rand"
	"sync"
	"testing"

	"dssp/internal/tensor"
)

func TestMessageTypeStrings(t *testing.T) {
	types := []MessageType{
		MsgRegister, MsgRegistered, MsgPush, MsgOK, MsgPull,
		MsgWeights, MsgDone, MsgShutdown, MsgError,
	}
	seen := map[string]bool{}
	for _, ty := range types {
		s := ty.String()
		if s == "" || seen[s] {
			t.Errorf("type %d has empty or duplicate name %q", ty, s)
		}
		seen[s] = true
	}
	if MessageType(99).String() != "MessageType(99)" {
		t.Error("unknown type string wrong")
	}
}

func TestWireTensorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	orig := []*tensor.Tensor{
		tensor.New(3, 4).RandNormal(rng, 0, 1),
		tensor.New(5).RandNormal(rng, 0, 1),
	}
	back, err := FromWireOwned(ToWireOwned(orig))
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if !back[i].SameShape(orig[i]) || !back[i].ApproxEqual(orig[i], 0) {
			t.Fatalf("tensor %d did not round trip", i)
		}
		// Neither direction copies: isolation is Send's job (Conn).
		if &back[i].Data()[0] != &orig[i].Data()[0] {
			t.Fatalf("tensor %d was copied on the way through the wire form", i)
		}
	}
}

func TestFromWireRejectsCorruptTensors(t *testing.T) {
	bad := []WireTensor{{Shape: []int{2, 2}, Data: []float32{1, 2, 3}}}
	if _, err := FromWireOwned(bad); err == nil {
		t.Fatal("expected error for mismatched data length")
	}
	bad = []WireTensor{{Shape: []int{0}, Data: nil}}
	if _, err := FromWireOwned(bad); err == nil {
		t.Fatal("expected error for non-positive dimension")
	}
}

func TestPipeDeliversMessagesInOrder(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	for i := 0; i < 10; i++ {
		if err := a.Send(Message{Type: MsgPush, Iteration: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		msg, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Iteration != i {
			t.Fatalf("message %d arrived out of order: %d", i, msg.Iteration)
		}
	}
}

// TestPipeKeepsTheConnContract holds the in-process carrier to Conn's
// ownership rule: Send is done with the memory a message aliases when it
// returns, a received payload leases a frame buffer that Release hands to a
// later Send, and a small frame's buffer goes back as soon as it is decoded.
func TestPipeKeepsTheConnContract(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	exchange := func(v float32, n int) Message {
		t.Helper()
		grad := tensor.Full(v, n)
		if err := a.Send(Message{Type: MsgPush, Tensors: ToWireOwned([]*tensor.Tensor{grad})}); err != nil {
			t.Fatal(err)
		}
		grad.Fill(-1) // the sender's buffer is its own again
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range m.Tensors[0].Data {
			if x != v {
				t.Fatalf("value %d reads %v, want %v: the message aliases the sender's tensor", i, x, v)
			}
		}
		return m
	}
	first := exchange(1, 8<<10)
	addr := &first.Tensors[0].Data[0]
	held := exchange(2, 8<<10)
	if &held.Tensors[0].Data[0] == addr {
		t.Fatal("a leased frame was handed to a second message")
	}
	first.Release()
	if third := exchange(3, 8<<10); &third.Tensors[0].Data[0] != addr {
		t.Error("the released frame was not the next send's buffer")
	}
	if held.Tensors[0].Data[0] != 2 {
		t.Error("an unreleased message's payload changed under it")
	}
	pool := a.(*chanConn).out
	before, _ := pool.snapshot()
	exchange(4, 16) // under smallBodyMax: the message owns copies
	if after, _ := pool.snapshot(); after != before+1 {
		t.Errorf("free list went from %d to %d buffers over a small frame, want its buffer back at once", before, after)
	}
}

func TestPipeCloseUnblocksReceiver(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	a.Close()
	if err := <-done; err == nil {
		t.Fatal("Recv should fail after the peer closes")
	}
	if err := a.Send(Message{Type: MsgPush}); err == nil {
		t.Fatal("Send on a closed connection should fail")
	}
}

func TestChanListenerDialAccept(t *testing.T) {
	l := NewChanListener()
	defer l.Close()
	if l.Addr() == "" {
		t.Fatal("listener address empty")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serverConn, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		msg, err := serverConn.Recv()
		if err != nil {
			t.Errorf("server recv: %v", err)
			return
		}
		msg.Worker++
		if err := serverConn.Send(msg); err != nil {
			t.Errorf("server send: %v", err)
		}
	}()

	workerConn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := workerConn.Send(Message{Type: MsgRegister, Worker: 6}); err != nil {
		t.Fatal(err)
	}
	reply, err := workerConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Worker != 7 {
		t.Fatalf("echo worker = %d, want 7", reply.Worker)
	}
	wg.Wait()
}

func TestChanListenerCloseStopsDialAndAccept(t *testing.T) {
	l := NewChanListener()
	l.Close()
	if _, err := l.Dial(); err == nil {
		t.Fatal("Dial after Close should fail")
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("Accept after Close should fail")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rng := rand.New(rand.NewSource(2))
	payload := ToWireOwned([]*tensor.Tensor{tensor.New(4, 4).RandNormal(rng, 0, 1)})

	serverDone := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			serverDone <- err
			return
		}
		defer conn.Close()
		msg, err := conn.Recv()
		if err != nil {
			serverDone <- err
			return
		}
		msg.Type = MsgWeights
		serverDone <- conn.Send(msg)
	}()

	conn, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(Message{Type: MsgPush, Worker: 3, Version: 42, Tensors: payload}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgWeights || reply.Worker != 3 || reply.Version != 42 {
		t.Fatalf("unexpected reply %+v", reply)
	}
	got, err := FromWireOwned(reply.Tensors)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromWireOwned(payload)
	if !got[0].ApproxEqual(want[0], 0) {
		t.Fatal("tensor payload corrupted over TCP")
	}
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}
}

func TestTCPDialFailsForUnreachableAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("expected dial error for unreachable port")
	}
}

func TestListenFailsForBadAddress(t *testing.T) {
	if _, err := Listen("not-an-address:99999"); err == nil {
		t.Fatal("expected listen error")
	}
}
