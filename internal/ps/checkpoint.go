package ps

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// A checkpoint is one file, checkpointFile, in the checkpoint directory, of
// two frames of the binary wire (docs/PROTOCOL.md): a Weights frame with the
// store's version and its published weights, and, when the optimizer keeps
// state, a second Weights frame with the velocity of every tensor. Both are
// by global tensor index, so a checkpoint restores into a store with any
// shard count. A save always writes the whole model — every push spans every
// shard (EnqueueApplyWeighted), so no shard stays clean between two saves.
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
const checkpointFile = "checkpoint.frames"

// olderCheckpointFiles are the formats earlier builds wrote: the gob-encoded
// single file, the incremental manifest (manifest.ckpt plus seg-*.ckpt) and
// the single file before it. Nothing reads them; they are recognized only so
// that a directory holding one is refused by name instead of silently trained
// over.
var olderCheckpointFiles = []string{"checkpoint.ckpt", "manifest.ckpt", "store.ckpt"}

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

// saveCheckpoint writes the store's state into dir as one checkpoint file,
// replacing the previous one atomically and durably, and returns the bytes
// written. Each shard is read at its latest publication.
func (s *Store) saveCheckpoint(dir string) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("ps: checkpoint dir: %w", err)
	}
	weights := transport.Message{Type: transport.MsgWeights, Version: s.version.Load(),
		Tensors: make([]transport.WireTensor, len(s.shapes))}
	state := make([][]float32, len(s.shapes))
	stateful := false
	gens := make([]*paramGen, len(s.shards))
	for i, sh := range s.shards {
		g, st := sh.checkpointView()
		gens[i] = g
		stateful = stateful || st != nil
		base := s.ranges[i].Start
		for j, p := range g.params {
			weights.Tensors[base+j] = transport.WireTensor{Shape: s.shapes[base+j], Data: p.Data()}
			if st != nil {
				state[base+j] = st[j]
			}
		}
	}
	buf, err := transport.AppendFrame(nil, &weights)
	if err == nil && stateful {
		// A tensor without velocity is written as zeros: a nil velocity starts
		// as zeros in the same kernel, so the restored steps are the same.
		velocity := transport.Message{Type: transport.MsgWeights, Tensors: make([]transport.WireTensor, len(s.shapes))}
		for g, v := range state {
			if v == nil {
				v = make([]float32, len(weights.Tensors[g].Data))
			}
			velocity.Tensors[g] = transport.WireTensor{Shape: s.shapes[g], Data: v}
		}
		buf, err = transport.AppendFrame(buf, &velocity)
	}
	for _, g := range gens {
		g.release()
	}
	if err != nil {
		return 0, fmt.Errorf("ps: encode checkpoint: %w", err)
	}
	if err := writeFileDurable(filepath.Join(dir, checkpointFile), buf); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// restoreCheckpoint replaces the store's weights, optimizer state and version
// with the checkpoint in dir and reports whether there was one; a directory
// holding a checkpoint of an older format is an error. The checkpoint's
// tensors must be laid out as the store's (checkLayout) — it restores a run of
// the same model, not an arbitrary one — but the shard count may differ from
// the saving server's. The learning rate stays the one the store was built
// with. Restore before serving traffic; it is not synchronized against
// concurrent Apply.
func (s *Store) restoreCheckpoint(dir string) (bool, error) {
	f, err := os.Open(filepath.Join(dir, checkpointFile))
	if errors.Is(err, fs.ErrNotExist) {
		for _, name := range olderCheckpointFiles {
			if _, serr := os.Stat(filepath.Join(dir, name)); serr == nil {
				return false, fmt.Errorf("ps: %s holds %s, a checkpoint format this build no longer reads", dir, name)
			}
		}
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("ps: open checkpoint: %w", err)
	}
	defer f.Close()
	// The file is the weights frame and, when the store kept optimizer
	// state, the velocity frame. Parsing checked every tensor's values
	// against its shape.
	var frames [][]*tensor.Tensor
	var version int64
	for br := bufio.NewReader(f); ; {
		m, err := transport.ReadFrame(br)
		if err == io.EOF && len(frames) > 0 {
			break
		}
		if err != nil {
			return false, fmt.Errorf("ps: read checkpoint: %w", err)
		}
		if m.Type != transport.MsgWeights || len(frames) == 2 {
			return false, fmt.Errorf("ps: checkpoint frame %d is %v, want at most two Weights frames", len(frames), m.Type)
		}
		ts := make([]*tensor.Tensor, len(m.Tensors))
		for i, w := range m.Tensors {
			ts[i] = tensor.FromSlice(w.Data, w.Shape...)
		}
		if err := s.checkLayout(ts); err != nil {
			return false, fmt.Errorf("ps: checkpoint frame %d: %w", len(frames), err)
		}
		if len(frames) == 0 {
			version = m.Version
		}
		frames = append(frames, ts)
	}
	if version < 0 {
		return false, fmt.Errorf("ps: checkpoint version %d is negative", version)
	}
	s.install(frames[0], version)
	for i, sh := range s.shards {
		// No velocity frame clears the optimizer state.
		var state [][]float32
		if len(frames) == 2 {
			for _, v := range frames[1][s.ranges[i].Start:s.ranges[i].End] {
				state = append(state, v.Data())
			}
		}
		sh.mu.Lock()
		sh.opt.LoadState(state)
		sh.mu.Unlock()
	}
	return true, nil
}
