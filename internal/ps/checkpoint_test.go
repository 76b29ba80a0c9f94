package ps

import (
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
	st, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.1, 0.9, 0.0001), shards)
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
	if _, _, err := NewCheckpointer(src, dir).Save(false); err != nil {
		t.Fatal(err)
	}
	other, err := NewStore([]*tensor.Tensor{tensor.New(5)}, optimizer.NewSGD(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreCheckpointDir(dir); err == nil {
		t.Fatal("restore into a different model succeeded")
	}
	// Same tensor count, different shapes: caught per tensor, before anything
	// is installed.
	reshaped, err := NewStore([]*tensor.Tensor{tensor.New(4, 3), tensor.New(7)}, optimizer.NewSGD(0.1))
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

// TestRestoreCheckpointWithoutState: a checkpoint whose segments carry no
// optimizer state (a stateless optimizer wrote it) restores into a store
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
	if _, _, err := NewCheckpointer(src, dir).Save(false); err != nil {
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
// directory holding only the single-file format builds before PR 15 wrote is
// refused by name — CheckpointExists says yes, so a server configured with it
// fails to start instead of silently training from scratch over it.
func TestRestoreMissingCheckpointFails(t *testing.T) {
	st := buildStore(t, 1, 0, 1)
	dir := t.TempDir()
	if CheckpointExists(dir) {
		t.Fatal("an empty directory reports a checkpoint")
	}
	if err := st.RestoreCheckpointDir(dir); err == nil {
		t.Fatal("restoring a missing checkpoint succeeded")
	}
	if err := os.WriteFile(filepath.Join(dir, "store.ckpt"), []byte("gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !CheckpointExists(dir) {
		t.Fatal("a legacy checkpoint directory reports no checkpoint: a server would start from scratch over it")
	}
	err := st.RestoreCheckpointDir(dir)
	if err == nil || !strings.Contains(err.Error(), "legacy single-file checkpoint; no longer supported") {
		t.Fatalf("restore from a legacy-only directory returned %v, want the explicit refusal", err)
	}
}

// TestIncrementalCheckpointRoundTrip: a manifest-format checkpoint restores
// bit-identically, including momentum — verified by driving both stores with
// identical gradients afterwards, which diverges if velocity was lost.
func TestIncrementalCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := buildStore(t, 2, 5, 11)
	ckpt := NewCheckpointer(src, dir)
	if _, _, err := ckpt.Save(false); err != nil {
		t.Fatal(err)
	}
	dst := buildStore(t, 2, 0, 11)
	if err := dst.RestoreCheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, src, dst, "manifest restore")

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
	assertStoresEqual(t, src, dst, "post-restore updates after manifest restore")
}

// TestIncrementalCheckpointRestoresAcrossShardCounts: segments are keyed by
// global tensor index, so a manifest written by a 2-shard store restores
// into a 1-shard one and vice versa.
func TestIncrementalCheckpointRestoresAcrossShardCounts(t *testing.T) {
	for _, shards := range [][2]int{{2, 1}, {1, 2}} {
		dir := t.TempDir()
		src := buildStore(t, shards[0], 4, 17)
		if _, _, err := NewCheckpointer(src, dir).Save(false); err != nil {
			t.Fatal(err)
		}
		dst := buildStore(t, shards[1], 0, 17)
		if err := dst.RestoreCheckpointDir(dir); err != nil {
			t.Fatal(err)
		}
		assertStoresEqual(t, src, dst, fmt.Sprintf("%d-shard manifest into %d shards", shards[0], shards[1]))
	}
}

// TestIncrementalCheckpointSkipsCleanShards pins the incremental save's
// defining behavior: a save with no intervening updates serializes zero
// shard segments and writes only a manifest — a small fraction of a full
// save — while a forced full save rewrites everything.
func TestIncrementalCheckpointSkipsCleanShards(t *testing.T) {
	dir := t.TempDir()
	// A realistically sized model, so "manifest only" versus "weights" is a
	// meaningful byte ratio rather than two small blobs.
	initial := []*tensor.Tensor{tensor.New(128, 64), tensor.New(96, 32)}
	st, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.1, 0.9, 1e-4), 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	shapes := [][]int{{128, 64}, {96, 32}}
	for i := 0; i < 3; i++ {
		if _, err := st.Apply(randomGrads(rng, shapes...)); err != nil {
			t.Fatal(err)
		}
	}
	ckpt := NewCheckpointer(st, dir)

	shards, fullBytes, err := ckpt.Save(false)
	if err != nil {
		t.Fatal(err)
	}
	if shards != 2 {
		t.Fatalf("first save wrote %d shards, want 2", shards)
	}

	// Nothing changed: the incremental save must skip every shard, and its
	// bytes (manifest only) must be far below a full snapshot's.
	shards, idleBytes, err := ckpt.Save(false)
	if err != nil {
		t.Fatal(err)
	}
	if shards != 0 {
		t.Fatalf("idle save wrote %d shards, want 0", shards)
	}
	if idleBytes*20 >= fullBytes {
		t.Fatalf("idle save wrote %d bytes, full save %d; want ≪", idleBytes, fullBytes)
	}
	// The skipping save still leaves a fully restorable checkpoint.
	dst, err := NewStoreSharded([]*tensor.Tensor{tensor.New(128, 64), tensor.New(96, 32)},
		optimizer.NewSGDMomentum(0.1, 0.9, 1e-4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreCheckpointDir(dir); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, st, dst, "restore after idle save")

	// full=true rewrites clean shards anyway (the Stop path).
	shards, _, err = ckpt.Save(true)
	if err != nil {
		t.Fatal(err)
	}
	if shards != 2 {
		t.Fatalf("full save wrote %d shards, want 2", shards)
	}

	// After an update every shard is dirty again (each push spans the whole
	// model), so the next incremental save rewrites both.
	if _, err := st.Apply(randomGrads(rng, shapes...)); err != nil {
		t.Fatal(err)
	}
	shards, _, err = ckpt.Save(false)
	if err != nil {
		t.Fatal(err)
	}
	if shards != 2 {
		t.Fatalf("post-update save wrote %d shards, want 2", shards)
	}
}

// TestIncrementalCheckpointGCsStaleSegments: superseded segment files are
// deleted once the manifest that stops referencing them is durable, so the
// directory holds one live segment per shard plus the manifest.
func TestIncrementalCheckpointGCsStaleSegments(t *testing.T) {
	dir := t.TempDir()
	st := buildStore(t, 2, 2, 31)
	ckpt := NewCheckpointer(st, dir)
	rng := rand.New(rand.NewSource(37))
	for round := 0; round < 3; round++ {
		if _, _, err := ckpt.Save(false); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Apply(randomGrads(rng, []int{3, 4}, []int{7})); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("checkpoint dir holds %d segment files after 3 saves, want 2 (stale ones collected): %v", len(segs), segs)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, ".ckpt-*")); len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
}

// TestServerCheckpointsPeriodicallyAndOnStop drives checkpoints through the
// server: pushes trigger interval saves, Stop writes the final state, and a
// fresh store restored from the file resumes at the stopped version.
func TestServerCheckpointsPeriodicallyAndOnStop(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore([]*tensor.Tensor{tensor.New(4)}, optimizer.NewSGD(1.0))
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
	c := NewClient(conn, 0)
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

	restored, err := NewStore([]*tensor.Tensor{tensor.New(4)}, optimizer.NewSGD(1.0))
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
