package ps

import (
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
func buildStore(t *testing.T, shards, steps int, seed int64) *Store {
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
	if _, err := src.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	other, err := NewStoreSharded([]*tensor.Tensor{tensor.New(5)}, optimizer.NewSGD(0.1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreCheckpointDir(dir); err == nil {
		t.Fatal("restore into a different model succeeded")
	}
	// Same tensor count, different shapes: caught per tensor, before anything
	// is installed.
	reshaped, err := NewStoreSharded([]*tensor.Tensor{tensor.New(4, 3), tensor.New(7)}, optimizer.NewSGD(0.1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := reshaped.RestoreCheckpointDir(dir); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("restore into reshaped tensors returned %v, want a shape error", err)
	}
	if v := reshaped.Version(); v != 0 {
		t.Fatalf("rejected restore moved the version to %d", v)
	}
}

// TestRestoreCheckpointWithoutState: a checkpoint that carries no optimizer
// state (a stateless optimizer wrote it) restores into a store
// whose optimizer keeps some, with none, instead of panicking on the missing
// slices — and the store steps normally afterwards.
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
	if _, err := src.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	dst := buildStore(t, 1, 0, 4)
	if err := dst.RestoreCheckpointDir(dir); err != nil {
		t.Fatalf("restore without state: %v", err)
	}
	assertStoresEqual(t, src, dst, "stateless restore")
	if _, err := dst.Apply(randomGrads(rng, []int{3, 4}, []int{7})); err != nil {
		t.Fatalf("apply after stateless restore: %v", err)
	}
}

// TestRestoreMissingCheckpointFails: an empty directory is an error, and a
// directory holding only a checkpoint in a format earlier builds wrote — the
// incremental manifest or the single file before it — is refused by name:
// CheckpointExists says yes, so a server configured with it fails to start
// instead of silently training from scratch over it.
func TestRestoreMissingCheckpointFails(t *testing.T) {
	st := buildStore(t, 1, 0, 1)
	dir := t.TempDir()
	if CheckpointExists(dir) {
		t.Fatal("an empty directory reports a checkpoint")
	}
	if err := st.RestoreCheckpointDir(dir); err == nil {
		t.Fatal("restoring a missing checkpoint succeeded")
	}
	for _, name := range []string{"manifest.ckpt", "store.ckpt"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), []byte("gob"), 0o644); err != nil {
			t.Fatal(err)
		}
		if !CheckpointExists(dir) {
			t.Fatalf("a directory holding %s reports no checkpoint: a server would start from scratch over it", name)
		}
		err := st.RestoreCheckpointDir(dir)
		if err == nil || !strings.Contains(err.Error(), name+", a checkpoint format this build no longer reads") {
			t.Fatalf("restore from a directory holding only %s returned %v, want the explicit refusal", name, err)
		}
	}
}

// TestCheckpointRoundTrip: a checkpoint restores bit-identically, including
// momentum — verified by driving both stores with identical gradients
// afterwards, which diverges if velocity was lost.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := buildStore(t, 2, 5, 11)
	if _, err := src.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	dst := buildStore(t, 2, 0, 11)
	if err := dst.RestoreCheckpointDir(dir); err != nil {
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
		if _, err := src.SaveCheckpoint(dir); err != nil {
			t.Fatal(err)
		}
		dst := buildStore(t, shards[1], 0, 17)
		if err := dst.RestoreCheckpointDir(dir); err != nil {
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
	if _, err := src.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	saved := buildStore(t, 2, 0, 19)
	if err := saved.RestoreCheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Apply(randomGrads(rand.New(rand.NewSource(23)), []int{3, 4}, []int{7})); err != nil {
		t.Fatal(err)
	}

	failRename := errors.New("rename refused")
	rename = func(string, string) error { return failRename }
	defer func() { rename = os.Rename }()
	if _, err := src.SaveCheckpoint(dir); !errors.Is(err, failRename) {
		t.Fatalf("save with a failing rename returned %v, want %v", err, failRename)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, ".ckpt-*")); len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
	dst := buildStore(t, 1, 0, 19)
	if err := dst.RestoreCheckpointDir(dir); err != nil {
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
	if err := srv.CheckpointError(); err != nil {
		t.Fatalf("checkpoint error: %v", err)
	}

	restored, err := NewStoreSharded([]*tensor.Tensor{tensor.New(4)}, optimizer.NewSGD(1.0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	// Stop's final save captured all 5 updates.
	if got := restored.Version(); got != 5 {
		t.Fatalf("restored version = %d, want 5", got)
	}
	assertStoresEqual(t, st, restored, "server checkpoint")
}
