package ps

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"dssp/internal/tensor"
)

// A checkpoint is a directory in the incremental manifest format
// (manifest.ckpt + seg-*.ckpt), written by Checkpointer: each shard's tensors
// and optimizer state live in a segment file stamped with the shard's
// publication version, and a save rewrites only the segments of shards whose
// version moved since the last save — the manifest re-references unchanged
// segments. Periodic checkpoint cost therefore tracks how much of the model
// actually changed, not how big it is.
//
// Crash safety: every file is written to a temporary name, fsynced, renamed
// into place, and the directory entry is fsynced — the previous checkpoint
// stays intact and durable until the new one fully is. The manifest rename is
// the commit point: new segments are made durable before the manifest that
// references them, and superseded segments are deleted only afterwards.

// CheckpointConfig configures periodic store checkpoints on a server
// (dssp.Checkpoint at the public surface): atomic files written every Every
// applied updates, and on shutdown, so a restarted server resumes the run
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

// ManifestFile returns the checkpoint manifest path used inside dir.
func ManifestFile(dir string) string { return filepath.Join(dir, "manifest.ckpt") }

// legacyCheckpointName is the single-file format builds before PR 15 could
// still write. Nothing reads it any more; it is recognized only so that a
// directory holding one is refused by name instead of silently ignored.
const legacyCheckpointName = "store.ckpt"

// CheckpointExists reports whether dir holds something a server must not
// start from scratch over: a manifest, or a legacy single-file checkpoint
// (which RestoreCheckpointDir then refuses).
func CheckpointExists(dir string) bool {
	for _, path := range []string{ManifestFile(dir), filepath.Join(dir, legacyCheckpointName)} {
		if _, err := os.Stat(path); err == nil {
			return true
		}
	}
	return false
}

// checkpointData is a checkpoint assembled from its segments: the published
// weights, the per-tensor optimizer state, the aggregate version, and the
// learning rate in force. Tensors are flat by global index, so a checkpoint
// restores into a store with any shard count.
type checkpointData struct {
	Version      int64
	LearningRate float64
	Shapes       [][]int
	Params       [][]float32
	// State holds the optimizer's per-parameter state by global tensor index;
	// nil entries mean no accumulated state for that tensor.
	State [][]float32
}

// checkpointManifest is the root of the incremental format: the store-wide
// restore point plus one segment reference per shard of the saving store.
type checkpointManifest struct {
	Version      int64
	LearningRate float64
	NumTensors   int
	Segments     []manifestSegment
}

// manifestSegment names one durable segment file and the shard snapshot it
// holds.
type manifestSegment struct {
	// File is the segment filename, relative to the checkpoint directory.
	File string
	// Base is the global index of the segment's first tensor; Count is how
	// many consecutive tensors it holds.
	Base, Count int
	// Version is the shard publication version the segment encodes — the
	// dirtiness key deciding whether the next save rewrites it.
	Version int64
}

// segmentData is one shard's serialized snapshot.
type segmentData struct {
	Base    int
	Version int64
	Shapes  [][]int
	Params  [][]float32
	// State is the shard optimizer's per-tensor state aligned with Params;
	// nil when the shard holds none.
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
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ps: publish checkpoint: %w", err)
	}
	return syncDir(dir)
}

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
// reference held — the caller must release it), its publication version, and
// a deep copy of the optimizer state consistent with that generation: the
// applier advances all three under the same write lock.
func (sh *shard) checkpointView() (g *paramGen, version int64, state [][]float32) {
	sh.mu.RLock()
	g, version = sh.gen, sh.version
	g.refs.Add(1)
	state = sh.opt.State()
	sh.mu.RUnlock()
	return g, version, state
}

// Checkpointer writes incremental checkpoints of one store into one
// directory. It remembers the shard versions of the last completed save, so
// the next save serializes only shards that have published since — the
// manifest keeps referencing the existing segment files for the rest. It is
// not safe for concurrent use; the server serializes saves (ckptMu).
type Checkpointer struct {
	store *Store
	dir   string
	// last is the manifest of the previous successful save; nil before the
	// first one. Segment entries are reused verbatim for clean shards.
	last []manifestSegment
}

// NewCheckpointer returns a Checkpointer writing st's checkpoints into dir
// in the incremental manifest format.
func NewCheckpointer(st *Store, dir string) *Checkpointer {
	return &Checkpointer{store: st, dir: dir}
}

// Save writes one checkpoint. Shards whose publication version is unchanged
// since the previous save keep their existing segment files; full forces
// every shard to be rewritten (used for the final save on server stop, so a
// stopping server always leaves freshly written state behind). It returns
// how many shard segments were serialized and the total bytes written
// (segments plus manifest).
func (c *Checkpointer) Save(full bool) (shardsWritten int, bytesWritten int64, err error) {
	st := c.store
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return 0, 0, fmt.Errorf("ps: checkpoint dir: %w", err)
	}
	m := checkpointManifest{
		Version:    st.version.Load(),
		NumTensors: len(st.shapes),
		Segments:   make([]manifestSegment, len(st.shards)),
	}
	st.protoMu.Lock()
	m.LearningRate = st.proto.LearningRate()
	st.protoMu.Unlock()
	for i, sh := range st.shards {
		r := st.ranges[i]
		if !full && c.last != nil {
			sh.mu.RLock()
			v := sh.version
			sh.mu.RUnlock()
			if v == c.last[i].Version {
				m.Segments[i] = c.last[i]
				continue
			}
		}
		g, version, state := sh.checkpointView()
		seg := segmentData{
			Base:    r.Start,
			Version: version,
			Shapes:  st.shapes[r.Start:r.End],
			Params:  make([][]float32, len(g.params)),
			State:   state,
		}
		for j, p := range g.params {
			seg.Params[j] = p.Data()
		}
		var buf bytes.Buffer
		encErr := gob.NewEncoder(&buf).Encode(&seg)
		g.release()
		if encErr != nil {
			return shardsWritten, bytesWritten, fmt.Errorf("ps: encode checkpoint segment %d: %w", i, encErr)
		}
		name := fmt.Sprintf("seg-%d-v%d.ckpt", i, version)
		if err := writeFileDurable(filepath.Join(c.dir, name), buf.Bytes()); err != nil {
			return shardsWritten, bytesWritten, err
		}
		m.Segments[i] = manifestSegment{
			File:    name,
			Base:    r.Start,
			Count:   r.End - r.Start,
			Version: version,
		}
		shardsWritten++
		bytesWritten += int64(buf.Len())
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
		return shardsWritten, bytesWritten, fmt.Errorf("ps: encode checkpoint manifest: %w", err)
	}
	// The manifest rename is the commit point: every segment it references
	// is already durable, and until it lands the previous manifest (and its
	// segments, still on disk) remain the restorable checkpoint.
	if err := writeFileDurable(ManifestFile(c.dir), buf.Bytes()); err != nil {
		return shardsWritten, bytesWritten, err
	}
	bytesWritten += int64(buf.Len())
	c.last = m.Segments
	c.gcSegments(m.Segments)
	return shardsWritten, bytesWritten, nil
}

// gcSegments deletes segment files the just-committed manifest no longer
// references — superseded versions, leftovers of crashed saves, or segments
// of an older shard layout. Failures are ignored: stray segments cost disk,
// not correctness.
func (c *Checkpointer) gcSegments(live []manifestSegment) {
	keep := make(map[string]bool, len(live))
	for _, seg := range live {
		keep[seg.File] = true
	}
	matches, err := filepath.Glob(filepath.Join(c.dir, "seg-*.ckpt"))
	if err != nil {
		return
	}
	sort.Strings(matches)
	for _, path := range matches {
		if !keep[filepath.Base(path)] {
			os.Remove(path)
		}
	}
}

// RestoreCheckpointDir replaces the store's weights, optimizer state, version
// and learning rate with the checkpoint in dir. The checkpoint's tensor shapes
// must match the store's — it restores a run of the same model, not an
// arbitrary one — but the shard count may differ from the saving server's.
// Restore before serving traffic; it is not synchronized against concurrent
// Apply.
func (s *Store) RestoreCheckpointDir(dir string) error {
	if _, err := os.Stat(ManifestFile(dir)); err != nil {
		if _, lerr := os.Stat(filepath.Join(dir, legacyCheckpointName)); lerr == nil {
			return fmt.Errorf("ps: %s holds a legacy single-file checkpoint; no longer supported (restore it with a build before PR 15, which rewrites it as a manifest on Stop)", dir)
		}
		return fmt.Errorf("ps: open checkpoint manifest: %w", err)
	}
	return s.restoreManifest(dir)
}

// restoreManifest loads an incremental checkpoint: the manifest names one
// segment per saving-store shard; together the segments must cover every
// tensor exactly once. The assembled state is validated against the store's
// layout before anything is installed.
func (s *Store) restoreManifest(dir string) error {
	f, err := os.Open(ManifestFile(dir))
	if err != nil {
		return fmt.Errorf("ps: open checkpoint manifest: %w", err)
	}
	var m checkpointManifest
	err = gob.NewDecoder(f).Decode(&m)
	f.Close()
	if err != nil {
		return fmt.Errorf("ps: decode checkpoint manifest: %w", err)
	}
	if m.NumTensors != len(s.shapes) {
		return fmt.Errorf("ps: checkpoint has %d tensors, store has %d", m.NumTensors, len(s.shapes))
	}
	ck := checkpointData{
		Version:      m.Version,
		LearningRate: m.LearningRate,
		Shapes:       make([][]int, len(s.shapes)),
		Params:       make([][]float32, len(s.shapes)),
		State:        make([][]float32, len(s.shapes)),
	}
	covered := 0
	for i, ref := range m.Segments {
		sf, err := os.Open(filepath.Join(dir, ref.File))
		if err != nil {
			return fmt.Errorf("ps: open checkpoint segment %d: %w", i, err)
		}
		var seg segmentData
		err = gob.NewDecoder(sf).Decode(&seg)
		sf.Close()
		if err != nil {
			return fmt.Errorf("ps: decode checkpoint segment %d: %w", i, err)
		}
		if seg.Base != ref.Base || seg.Version != ref.Version || len(seg.Params) != ref.Count {
			return fmt.Errorf("ps: checkpoint segment %s does not match its manifest entry", ref.File)
		}
		if seg.Base < 0 || seg.Base+len(seg.Params) > len(s.shapes) {
			return fmt.Errorf("ps: checkpoint segment %s covers tensors [%d,%d), store has %d",
				ref.File, seg.Base, seg.Base+len(seg.Params), len(s.shapes))
		}
		if len(seg.Shapes) != len(seg.Params) {
			return fmt.Errorf("ps: checkpoint segment %s has %d shapes for %d tensors",
				ref.File, len(seg.Shapes), len(seg.Params))
		}
		if seg.State != nil && len(seg.State) != len(seg.Params) {
			return fmt.Errorf("ps: checkpoint segment %s has state for %d of %d tensors",
				ref.File, len(seg.State), len(seg.Params))
		}
		for j := range seg.Params {
			g := seg.Base + j
			if ck.Params[g] != nil {
				return fmt.Errorf("ps: checkpoint tensor %d covered by two segments", g)
			}
			ck.Shapes[g] = seg.Shapes[j]
			ck.Params[g] = seg.Params[j]
			if seg.State != nil {
				ck.State[g] = seg.State[j]
			}
			covered++
		}
	}
	if covered != len(s.shapes) {
		return fmt.Errorf("ps: checkpoint segments cover %d of %d tensors", covered, len(s.shapes))
	}
	return s.installCheckpoint(&ck)
}

// installCheckpoint validates assembled checkpoint state against the store's
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
		sh.gen = &paramGen{params: params}
		// Old generations alias the replaced run's tensors; drop them rather
		// than letting a future applier publish into pre-restore buffers a
		// reader might still hold.
		sh.retired = nil
		sh.opt.LoadState(state)
		// Bump the shard version past anything the packed-pull cache may have
		// encoded so the next compressed pull repacks the restored weights —
		// and so delta-pulling workers holding pre-restore chunks re-download
		// the shard rather than trusting a matching version number.
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
