package store

import (
	"fmt"

	uss "repro"
)

// RebuiltSketch is one sketch reconstructed by an Applier: the sketch
// plus the Applier's bookkeeping — the LSN its state reflects and the
// served-row counters.
type RebuiltSketch struct {
	Sketch
	// LSN is the last log record applied to this sketch.
	LSN uint64
	// Rows is the served-row counter (checkpoint value plus replayed
	// rows).
	Rows int64
	// Dropped counts replayed rollup rows past the retention horizon.
	Dropped int64
	// Pushes counts replayed snapshot merges.
	Pushes int64
}

// RecoverStats summarizes one recovery pass.
type RecoverStats struct {
	// CheckpointGen is the loaded checkpoint generation (0 = none).
	CheckpointGen uint64
	// Cutoff is the loaded checkpoint's truncation LSN.
	Cutoff uint64
	// Segments is the number of log segments seen.
	Segments int
	// LastLSN is the highest LSN found in the log.
	LastLSN uint64
	// Applied and Skipped count replayed records: Skipped records were
	// already covered by the checkpoint (LSN at or below their sketch's
	// gate) or targeted a missing sketch.
	Applied, Skipped int
	// TornTail reports whether replay stopped at damage (a torn tail
	// after a crash, or mid-log corruption).
	TornTail bool
	// Warnings lists non-fatal oddities (unknown names, duplicate
	// creates, undecodable snapshots), capped at a few dozen.
	Warnings []string
}

// RebuildResult is Rebuild's output: every live sketch plus the stats.
type RebuildResult struct {
	// Sketches maps sketch name to its reconstructed state.
	Sketches map[string]*RebuiltSketch
	// Stats summarizes the pass.
	Stats RecoverStats
}

const maxWarnings = 32

func (st *RecoverStats) warnf(format string, args ...any) {
	if len(st.Warnings) < maxWarnings {
		st.Warnings = append(st.Warnings, fmt.Sprintf(format, args...))
	}
}

// Applier is the transport-neutral record applier: a set of rebuilt
// sketches plus per-sketch LSN gates, fed decoded WAL records in LSN
// order (boot recovery, `uss wal replay`). It applies ingest and pushes
// through the same store.Sketch methods the live server and follower
// apply run, so replayed, replicated and live state are bit-identical
// by construction. Not safe for concurrent use.
type Applier struct {
	// Sketches maps sketch name to its reconstructed state.
	Sketches map[string]*RebuiltSketch
	// Stats accumulates apply bookkeeping across the Applier's life.
	Stats RecoverStats

	gate map[string]uint64
}

// NewApplier returns an empty Applier: no sketches, no gates.
func NewApplier() *Applier {
	return &Applier{
		Sketches: make(map[string]*RebuiltSketch),
		gate:     make(map[string]uint64),
	}
}

// LoadCheckpoint seeds the applier from dir's newest committed
// checkpoint generation, restoring every sketch's state and setting its
// replay gate to its checkpoint LSN. A dir with no checkpoint is a
// no-op. Call before Apply.
func (a *Applier) LoadCheckpoint(dir string) error {
	gen := latestCheckpointGen(dir)
	if gen == 0 {
		return nil
	}
	man, err := loadManifest(dir, gen)
	if err != nil {
		return err
	}
	a.Stats.CheckpointGen = gen
	a.Stats.Cutoff = man.Cutoff
	for i := range man.Sketches {
		ms := &man.Sketches[i]
		blob, err := loadCheckpointBlob(dir, gen, ms)
		if err != nil {
			return err
		}
		sk, err := NewSketch(ms.Spec)
		if err != nil {
			return err
		}
		if err := sk.Restore(blob); err != nil {
			return fmt.Errorf("store: restore %q from checkpoint: %w", ms.Spec.Name, err)
		}
		a.Sketches[ms.Spec.Name] = &RebuiltSketch{
			Sketch: sk, LSN: ms.LSN, Rows: ms.Rows, Pushes: ms.Pushes, Dropped: ms.Dropped,
		}
		a.gate[ms.Spec.Name] = ms.LSN
	}
	return nil
}

// Apply replays one decoded record, honouring the per-sketch LSN gate:
// a record at or below its sketch's gate (already covered by the
// checkpoint, or already applied) is skipped, so double-apply is
// impossible no matter how the record stream resumes or repeats.
// Records for unknown sketches and undecodable snapshots are skipped
// and reported in Stats.Warnings, never fatal — the applier's contract
// is salvage, not veto.
func (a *Applier) Apply(rec *Record) {
	if rec.LSN <= a.gate[rec.Name] {
		a.Stats.Skipped++
		return
	}
	switch rec.Type {
	case TypeCreate:
		if _, taken := a.Sketches[rec.Name]; taken {
			a.Stats.warnf("lsn %d: create %q: already exists, skipped", rec.LSN, rec.Name)
			a.Stats.Skipped++
			return
		}
		sk, err := NewSketch(rec.Spec)
		if err != nil {
			a.Stats.warnf("lsn %d: create %q: %v", rec.LSN, rec.Name, err)
			a.Stats.Skipped++
			return
		}
		a.Sketches[rec.Name] = &RebuiltSketch{Sketch: sk, LSN: rec.LSN}
	case TypeDelete:
		if _, ok := a.Sketches[rec.Name]; !ok {
			a.Stats.warnf("lsn %d: delete %q: no such sketch", rec.LSN, rec.Name)
			a.Stats.Skipped++
			return
		}
		delete(a.Sketches, rec.Name)
	case TypeIngest:
		rb, ok := a.Sketches[rec.Name]
		if !ok {
			a.Stats.warnf("lsn %d: ingest into missing sketch %q", rec.LSN, rec.Name)
			a.Stats.Skipped++
			return
		}
		rb.Dropped += rb.ApplyIngest(rec.Items, rec.Weights, rec.Ats)
		rb.Rows += int64(len(rec.Items))
		rb.LSN = rec.LSN
	case TypeSnapshot:
		rb, ok := a.Sketches[rec.Name]
		if !ok {
			a.Stats.warnf("lsn %d: snapshot push into missing sketch %q", rec.LSN, rec.Name)
			a.Stats.Skipped++
			return
		}
		red, err := ParseReduction(rec.Reduction)
		var pushed []uss.Bin
		if err == nil {
			pushed, err = uss.DecodeBins(rec.Blob)
		}
		if err == nil {
			err = rb.MergePushed(red, pushed)
		}
		if err != nil {
			a.Stats.warnf("lsn %d: snapshot push into %q: %v", rec.LSN, rec.Name, err)
			a.Stats.Skipped++
			return
		}
		rb.Pushes++
		rb.LSN = rec.LSN
	default:
		a.Stats.warnf("lsn %d: unknown record type %d", rec.LSN, rec.Type)
		a.Stats.Skipped++
		return
	}
	a.gate[rec.Name] = rec.LSN
	a.Stats.Applied++
}

// Rebuild reconstructs every sketch from dir's newest checkpoint plus
// the log tail, read-only (nothing is truncated or written — safe on a
// live or foreign data directory, though the result is then a snapshot
// in time). It is the boot-recovery and `uss wal replay` entry point:
// an Applier seeded from the checkpoint, fed the log tail in LSN order.
func Rebuild(dir string) (*RebuildResult, error) {
	a := NewApplier()
	if err := a.LoadCheckpoint(dir); err != nil {
		return nil, err
	}
	segs, lastLSN, err := scanLog(dir, func(rec *Record) error {
		a.Apply(rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	a.Stats.Segments = len(segs)
	a.Stats.LastLSN = lastLSN
	for i := range segs {
		if segs[i].torn {
			a.Stats.TornTail = true
		}
	}
	return &RebuildResult{Sketches: a.Sketches, Stats: a.Stats}, nil
}
