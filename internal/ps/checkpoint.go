package ps

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"dssp/internal/tensor"
)

// A checkpoint is one file, checkpointFile, in the checkpoint directory: the
// store's published weights, optimizer state, version and learning rate, flat
// by global tensor index so it restores into a store with any shard count. A
// save always writes the whole model — every push spans every shard
// (EnqueueApplyWeighted), so no shard stays clean between two saves.
//
// Crash safety: the file is written to a temporary name, fsynced, renamed into
// place, and the directory entry is fsynced — the previous checkpoint stays
// intact and durable until the new one fully is.

// CheckpointConfig configures periodic store checkpoints on a server
// (dssp.Checkpoint at the public surface): one atomic file rewritten every
// Every applied updates, and on shutdown, so a restarted server resumes the run
// where it stopped.
type CheckpointConfig struct {
	// Dir is the directory checkpoints are written to; empty disables
	// checkpointing.
	Dir string
	// Every writes a checkpoint whenever Every gradient updates have been
	// applied since the last one. 0 (with Dir set) checkpoints only on Stop.
	Every int
}

// Enabled reports whether the configuration asks for checkpoints at all.
func (c CheckpointConfig) Enabled() bool { return c.Dir != "" }

// checkpointFile is the checkpoint's name inside its directory.
const checkpointFile = "checkpoint.ckpt"

// olderCheckpointFiles are the formats earlier builds wrote: the incremental
// manifest (manifest.ckpt plus seg-*.ckpt) and the single file before it.
// Nothing reads them; they are recognized only so that a directory holding one
// is refused by name instead of silently trained over.
var olderCheckpointFiles = []string{"manifest.ckpt", "store.ckpt"}

// CheckpointExists reports whether dir holds something a server must not
// start from scratch over: a checkpoint, or one in an older format (which
// RestoreCheckpointDir then refuses).
func CheckpointExists(dir string) bool {
	for _, name := range append([]string{checkpointFile}, olderCheckpointFiles...) {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// checkpointData is the checkpoint file's content: the published weights, the
// per-tensor optimizer state, the aggregate version, and the learning rate in
// force, by global tensor index.
type checkpointData struct {
	Version      int64
	LearningRate float64
	Shapes       [][]int
	Params       [][]float32
	// State holds the optimizer's per-parameter state by global tensor index;
	// nil entries mean no accumulated state for that tensor.
	State [][]float32
}

// writeFileDurable atomically and durably replaces path with data: temp file
// in the same directory, fsync, rename, fsync of the directory entry. The
// previous file content survives any crash before the rename commits.
func writeFileDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ps: checkpoint temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("ps: write checkpoint: %w", err)
	}
	// fsync before rename: otherwise the rename can become durable before
	// the data, and a power cut leaves the published name pointing at a
	// truncated file.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("ps: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ps: close checkpoint: %w", err)
	}
	if err := rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ps: publish checkpoint: %w", err)
	}
	return syncDir(dir)
}

// rename publishes a written checkpoint file; a variable so a test can fail a
// save at its last step.
var rename = os.Rename

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ps: open checkpoint dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ps: sync checkpoint dir: %w", err)
	}
	return nil
}

// checkpointView returns the shard's current generation (with a bounded
// reference held — the caller must release it) and a deep copy of the
// optimizer state consistent with it: the applier advances both under the
// same write lock.
func (sh *shard) checkpointView() (g *paramGen, state [][]float32) {
	sh.mu.RLock()
	g = sh.gen
	g.refs.Add(1)
	state = sh.opt.State()
	sh.mu.RUnlock()
	return g, state
}

// SaveCheckpoint writes the store's state into dir as one checkpoint file,
// replacing the previous one atomically and durably, and returns the bytes
// written. Each shard is read at its latest publication.
func (s *Store) SaveCheckpoint(dir string) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("ps: checkpoint dir: %w", err)
	}
	ck := checkpointData{
		Version: s.version.Load(),
		Shapes:  s.shapes,
		Params:  make([][]float32, len(s.shapes)),
		State:   make([][]float32, len(s.shapes)),
	}
	s.protoMu.Lock()
	ck.LearningRate = s.proto.LearningRate()
	s.protoMu.Unlock()
	gens := make([]*paramGen, len(s.shards))
	for i, sh := range s.shards {
		g, state := sh.checkpointView()
		gens[i] = g
		base := s.ranges[i].Start
		for j, p := range g.params {
			ck.Params[base+j] = p.Data()
			if state != nil {
				ck.State[base+j] = state[j]
			}
		}
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&ck)
	for _, g := range gens {
		g.release()
	}
	if err != nil {
		return 0, fmt.Errorf("ps: encode checkpoint: %w", err)
	}
	if err := writeFileDurable(filepath.Join(dir, checkpointFile), buf.Bytes()); err != nil {
		return 0, err
	}
	return int64(buf.Len()), nil
}

// RestoreCheckpointDir replaces the store's weights, optimizer state, version
// and learning rate with the checkpoint in dir. The checkpoint's tensor shapes
// must match the store's — it restores a run of the same model, not an
// arbitrary one — but the shard count may differ from the saving server's.
// Restore before serving traffic; it is not synchronized against concurrent
// Apply.
func (s *Store) RestoreCheckpointDir(dir string) error {
	f, err := os.Open(filepath.Join(dir, checkpointFile))
	if err != nil {
		for _, name := range olderCheckpointFiles {
			if _, serr := os.Stat(filepath.Join(dir, name)); serr == nil {
				return fmt.Errorf("ps: %s holds %s, a checkpoint format this build no longer reads", dir, name)
			}
		}
		return fmt.Errorf("ps: open checkpoint: %w", err)
	}
	var ck checkpointData
	err = gob.NewDecoder(f).Decode(&ck)
	f.Close()
	if err != nil {
		return fmt.Errorf("ps: decode checkpoint: %w", err)
	}
	return s.installCheckpoint(&ck)
}

// installCheckpoint validates decoded checkpoint state against the store's
// layout and installs it: fresh generations per shard, optimizer state
// loaded, versions re-based.
func (s *Store) installCheckpoint(ck *checkpointData) error {
	if ck.Version < 0 {
		return fmt.Errorf("ps: checkpoint version %d is negative", ck.Version)
	}
	if len(ck.Params) != len(s.shapes) || len(ck.Shapes) != len(s.shapes) {
		return fmt.Errorf("ps: checkpoint has %d tensors, store has %d", len(ck.Params), len(s.shapes))
	}
	if len(ck.State) != len(s.shapes) {
		return fmt.Errorf("ps: checkpoint has state for %d tensors, store has %d", len(ck.State), len(s.shapes))
	}
	for i, shape := range ck.Shapes {
		if !sameShape(shape, s.shapes[i]) {
			return fmt.Errorf("ps: checkpoint tensor %d has shape %v, store expects %v", i, shape, s.shapes[i])
		}
		want := 1
		for _, d := range shape {
			want *= d
		}
		if len(ck.Params[i]) != want {
			return fmt.Errorf("ps: checkpoint tensor %d has %d values for shape %v", i, len(ck.Params[i]), shape)
		}
		if st := ck.State[i]; st != nil && len(st) != want {
			return fmt.Errorf("ps: checkpoint state %d has %d values for shape %v", i, len(st), shape)
		}
	}

	// Quiesce the apply pipeline: any updates still queued behind the
	// restore belong to the run being replaced, and the per-shard applied
	// counters below must not race appliers.
	s.Close()
	for i, sh := range s.shards {
		r := s.ranges[i]
		params := make([]*tensor.Tensor, r.End-r.Start)
		var state [][]float32
		hasState := false
		for j := range params {
			g := r.Start + j
			params[j] = tensor.FromSlice(append([]float32(nil), ck.Params[g]...), s.shapes[g]...)
			if ck.State[g] != nil {
				hasState = true
			}
		}
		if hasState {
			state = make([][]float32, len(params))
			for j := range params {
				g := r.Start + j
				if ck.State[g] != nil {
					state[j] = ck.State[g]
				} else {
					// Mixed checkpoints (some tensors stateless) restore zero
					// state for the stateless ones to keep alignment.
					state[j] = make([]float32, len(ck.Params[g]))
				}
			}
		}
		sh.mu.Lock()
		// Old generations alias the replaced run's tensors; drop them rather
		// than letting a future applier publish into pre-restore buffers a
		// reader might still hold.
		sh.evict(append(sh.retired, sh.gen)...)
		sh.gen = &paramGen{params: params}
		sh.retired = nil
		sh.opt.LoadState(state)
		// Bump the shard version past anything the packed-pull cache may have
		// encoded so the next compressed pull repacks the restored weights.
		sh.version++
		sh.mu.Unlock()
		// Re-base the applied counter: the store-wide applied version is the
		// minimum over these, so all shards restart in agreement at the
		// checkpoint's version.
		sh.applied.Store(ck.Version)
	}
	s.reserved.Store(ck.Version)
	s.version.Store(ck.Version)
	if ck.LearningRate > 0 {
		s.SetLearningRate(ck.LearningRate)
	}
	return nil
}
