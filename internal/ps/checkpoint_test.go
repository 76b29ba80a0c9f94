package ps

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// randomGrads returns deterministic pseudo-random gradients matching shapes.
func randomGrads(rng *rand.Rand, shapes ...[]int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(shapes))
	for i, shape := range shapes {
		t := tensor.New(shape...)
		d := t.Data()
		for j := range d {
			d[j] = float32(rng.NormFloat64())
		}
		out[i] = t
	}
	return out
}

// buildStore creates a store over two tensors with a momentum optimizer (so
// checkpoints carry real optimizer state) and applies steps updates.
func buildStore(t testing.TB, shards, steps int, seed int64) *Store {
	t.Helper()
	initial := []*tensor.Tensor{tensor.New(3, 4), tensor.New(7)}
	st, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.1, 0.9), shards)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		if _, err := st.Apply(randomGrads(rng, []int{3, 4}, []int{7})); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// assertStoresEqual fails unless both stores publish bit-identical weights
// and the same version.
func assertStoresEqual(t *testing.T, a, b *Store, context string) {
	t.Helper()
	pa, va := a.Snapshot()
	pb, vb := b.Snapshot()
	if va != vb {
		t.Fatalf("%s: versions differ: %d vs %d", context, va, vb)
	}
	for i := range pa {
		da, db := pa[i].Data(), pb[i].Data()
		for j := range da {
			if da[j] != db[j] {
				t.Fatalf("%s: tensor %d element %d differs: %v vs %v", context, i, j, da[j], db[j])
			}
		}
	}
}

func TestCheckpointRejectsMismatchedModel(t *testing.T) {
	dir := t.TempDir()
	src := buildStore(t, 1, 1, 3)
	if _, err := src.saveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	other, err := NewStoreSharded([]*tensor.Tensor{tensor.New(5)}, optimizer.NewSGD(0.1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.restoreCheckpoint(dir); err == nil {
		t.Fatal("restore into a different model succeeded")
	}
	// Same tensor count, different shapes: caught per tensor, before anything
	// is installed.
	reshaped, err := NewStoreSharded([]*tensor.Tensor{tensor.New(4, 3), tensor.New(7)}, optimizer.NewSGD(0.1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reshaped.restoreCheckpoint(dir); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("restore into reshaped tensors returned %v, want a shape error", err)
	}
	if v := reshaped.Version(); v != 0 {
		t.Fatalf("rejected restore moved the version to %d", v)
	}
}

// TestRestoreCheckpointWithoutState: a checkpoint that carries no optimizer
// state (a stateless optimizer wrote it, so the file has no velocity frame)
// restores into a store whose optimizer has already built up velocity, and
// clears it: the restored store's next step lands where the stateless
// source's does.
func TestRestoreCheckpointWithoutState(t *testing.T) {
	dir := t.TempDir()
	src, err := NewStoreSharded([]*tensor.Tensor{tensor.New(3, 4), tensor.New(7)}, optimizer.NewSGD(0.1), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2; i++ {
		if _, err := src.Apply(randomGrads(rng, []int{3, 4}, []int{7})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.saveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	dst := buildStore(t, 1, 3, 4)
	if _, err := dst.restoreCheckpoint(dir); err != nil {
		t.Fatalf("restore without state: %v", err)
	}
	assertStoresEqual(t, src, dst, "stateless restore")
	grads := randomGrads(rng, []int{3, 4}, []int{7})
	for _, st := range []*Store{src, dst} {
		if _, err := st.Apply(grads); err != nil {
			t.Fatalf("apply after stateless restore: %v", err)
		}
	}
	assertStoresEqual(t, src, dst, "first step after a stateless restore")
}

// TestRestoredStoreStepsAtItsOwnLearningRate: a checkpoint holds weights and
// velocity, not the learning rate, so a server restarted with another rate
// steps at the one it was built with — bit for bit where a store built at
// that rate, holding the same weights and velocity, steps.
func TestRestoredStoreStepsAtItsOwnLearningRate(t *testing.T) {
	dir := t.TempDir()
	src := buildStore(t, 1, 3, 29) // lr 0.1, momentum 0.9
	if _, err := src.saveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	initial := []*tensor.Tensor{tensor.New(3, 4), tensor.New(7)}
	dst, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.01, 0.9), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.restoreCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	weights, _ := src.Snapshot()
	ref, err := NewStoreSharded(weights, optimizer.NewSGDMomentum(0.01, 0.9), 1)
	if err != nil {
		t.Fatal(err)
	}
	ref.shards[0].opt.LoadState(src.shards[0].opt.State())
	grads := randomGrads(rand.New(rand.NewSource(31)), []int{3, 4}, []int{7})
	for _, st := range []*Store{dst, ref} {
		if _, err := st.Apply(grads); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := dst.Snapshot()
	want, _ := ref.Snapshot()
	requireSameWeights(t, got, want)
}

// TestRestoreMissingCheckpointFails: an empty directory restores nothing, and
// a directory holding only a checkpoint in a format earlier builds wrote — the
// gob file, the incremental manifest or the single file before it — is
// refused by name, so a server configured with it fails to start instead of
// silently training from scratch over it.
func TestRestoreMissingCheckpointFails(t *testing.T) {
	st := buildStore(t, 1, 0, 1)
	if restored, err := st.restoreCheckpoint(t.TempDir()); restored || err != nil {
		t.Fatalf("an empty directory restored %v with error %v, want nothing and no error", restored, err)
	}
	for _, name := range []string{"checkpoint.ckpt", "manifest.ckpt", "store.ckpt"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), []byte("gob"), 0o644); err != nil {
			t.Fatal(err)
		}
		restored, err := st.restoreCheckpoint(dir)
		if restored || err == nil || !strings.Contains(err.Error(), name+", a checkpoint format this build no longer reads") {
			t.Fatalf("restore from a directory holding only %s returned %v, %v, want the explicit refusal", name, restored, err)
		}
	}
}

// TestCheckpointRoundTrip: a checkpoint restores bit-identically, including
// momentum — verified by driving both stores with identical gradients
// afterwards, which diverges if velocity was lost.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := buildStore(t, 2, 5, 11)
	if _, err := src.saveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	dst := buildStore(t, 2, 0, 11)
	if _, err := dst.restoreCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, src, dst, "checkpoint restore")

	rng1 := rand.New(rand.NewSource(13))
	rng2 := rand.New(rand.NewSource(13))
	for i := 0; i < 3; i++ {
		if _, err := src.Apply(randomGrads(rng1, []int{3, 4}, []int{7})); err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Apply(randomGrads(rng2, []int{3, 4}, []int{7})); err != nil {
			t.Fatal(err)
		}
	}
	assertStoresEqual(t, src, dst, "post-restore updates after checkpoint restore")
}

// TestCheckpointRestoresAcrossShardCounts: tensors are stored by global
// index, so a checkpoint written by a 2-shard store restores into a 1-shard
// one and vice versa.
func TestCheckpointRestoresAcrossShardCounts(t *testing.T) {
	for _, shards := range [][2]int{{2, 1}, {1, 2}} {
		dir := t.TempDir()
		src := buildStore(t, shards[0], 4, 17)
		if _, err := src.saveCheckpoint(dir); err != nil {
			t.Fatal(err)
		}
		dst := buildStore(t, shards[1], 0, 17)
		if _, err := dst.restoreCheckpoint(dir); err != nil {
			t.Fatal(err)
		}
		assertStoresEqual(t, src, dst, fmt.Sprintf("%d-shard checkpoint into %d shards", shards[0], shards[1]))
	}
}

// TestCheckpointSaveFailureKeepsPreviousCheckpoint: a save that fails before
// its rename publishes nothing — the previous checkpoint still restores, at
// its own version, and the failed save's temp file is gone.
func TestCheckpointSaveFailureKeepsPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	src := buildStore(t, 2, 3, 19)
	if _, err := src.saveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	saved := buildStore(t, 2, 0, 19)
	if _, err := saved.restoreCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Apply(randomGrads(rand.New(rand.NewSource(23)), []int{3, 4}, []int{7})); err != nil {
		t.Fatal(err)
	}

	failRename := errors.New("rename refused")
	rename = func(string, string) error { return failRename }
	defer func() { rename = os.Rename }()
	if _, err := src.saveCheckpoint(dir); !errors.Is(err, failRename) {
		t.Fatalf("save with a failing rename returned %v, want %v", err, failRename)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, ".ckpt-*")); len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
	dst := buildStore(t, 1, 0, 19)
	if _, err := dst.restoreCheckpoint(dir); err != nil {
		t.Fatalf("previous checkpoint no longer restores: %v", err)
	}
	assertStoresEqual(t, saved, dst, "restore after a failed save")
}

// TestServerCheckpointsPeriodicallyAndOnStop drives checkpoints through the
// server: pushes trigger interval saves, Stop writes the final state, and a
// fresh store restored from the file resumes at the stopped version.
func TestServerCheckpointsPeriodicallyAndOnStop(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStoreSharded([]*tensor.Tensor{tensor.New(4)}, optimizer.NewSGD(1.0), 0)
	if err != nil {
		t.Fatal(err)
	}
	policy := core.MustNewASP(1)
	srv, err := NewServer(ServerConfig{
		Workers: 1,
		Policy:  policy,
		Store:   st,
		Options: Options{Checkpoint: CheckpointConfig{Dir: dir, Every: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	listener := transport.NewChanListener()
	go func() { _ = srv.Serve(listener) }()

	conn, err := listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(conn, 0)
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	grad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 2, 3, 4}, 4)}
	for i := 0; i < 5; i++ {
		if err := c.PushAndWait(grad, int64(i), i); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	srv.Stop()
	listener.Close()
	if err := srv.Status().CheckpointError; err != "" {
		t.Fatalf("checkpoint error: %s", err)
	}

	restored, err := NewStoreSharded([]*tensor.Tensor{tensor.New(4)}, optimizer.NewSGD(1.0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.restoreCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	// Stop's final save captured all 5 updates.
	if got := restored.Version(); got != 5 {
		t.Fatalf("restored version = %d, want 5", got)
	}
	assertStoresEqual(t, st, restored, "server checkpoint")
}

// FuzzRestoreCheckpoint writes arbitrary bytes as the checkpoint file: the
// restore either fails, leaving the store's version and weights as they were,
// or restores tensors laid out as the store's. It never panics.
func FuzzRestoreCheckpoint(f *testing.F) {
	saved := func(st *Store) []byte {
		dir := f.TempDir()
		if _, err := st.saveCheckpoint(dir); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, checkpointFile))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	withState := saved(buildStore(f, 2, 3, 37))
	stateless, err := NewStoreSharded([]*tensor.Tensor{tensor.New(3, 4), tensor.New(7)}, optimizer.NewSGD(0.1), 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withState)
	f.Add(saved(stateless))
	f.Add(withState[:len(withState)-5]) // the velocity frame cut short
	weights, _ := stateless.Snapshot()
	push, err := transport.AppendFrame(nil, &transport.Message{Type: transport.MsgPush, Tensors: transport.ToWireOwned(weights)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(push)
	// The format earlier builds wrote under another name.
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(struct {
		Version      int64
		LearningRate float64
		Params       [][]float32
	}{3, 0.1, [][]float32{weights[0].Data(), weights[1].Data()}}); err != nil {
		f.Fatal(err)
	}
	f.Add(old.Bytes())
	f.Fuzz(func(t *testing.T, file []byte) {
		st := buildStore(t, 2, 1, 41)
		before, version := st.Snapshot()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpointFile), file, 0o644); err != nil {
			t.Fatal(err)
		}
		restored, err := st.restoreCheckpoint(dir)
		after, v := st.Snapshot()
		if err != nil {
			if restored || v != version || !sameTensors(after, before) {
				t.Fatalf("a refused restore (%v) changed the store: restored %v, version %d -> %d", err, restored, version, v)
			}
			return
		}
		if !restored {
			t.Fatal("a checkpoint restored without error reports nothing restored")
		}
		for i, p := range after {
			if !sameShape(p.Shape(), st.shapes[i]) {
				t.Fatalf("restored tensor %d has shape %v, store expects %v", i, p.Shape(), st.shapes[i])
			}
		}
	})
}
