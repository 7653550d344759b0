package store

import (
	"fmt"

	uss "repro"
)

// Sketch is one hosted sketch: its spec and exactly one non-nil sketch
// field matching Spec.Kind. Its methods are the only per-kind
// implementation of construction, state encoding, restore, ingest apply
// and push merge, so the live server, boot recovery, follower apply,
// cold revival and peer restore all run the same code — which is what
// makes replayed state bit-identical to live state.
//
// A Sketch is not synchronized; callers serialize access (the server's
// entry lock), except that a sharded sketch's ApplyIngest and
// AppendSnapshot are safe for concurrent use.
type Sketch struct {
	// Spec is the sketch's configuration.
	Spec SketchSpec

	// The sketch itself; one field per kind.
	Unit     *uss.Sketch
	Weighted *uss.WeightedSketch
	Sharded  *uss.ShardedSketch
	Rollup   *uss.Rollup
}

// options renders a spec's seed as sketch construction options.
func (sp *SketchSpec) options() []uss.Option {
	if sp.Seed != 0 {
		return []uss.Option{uss.WithSeed(sp.Seed)}
	}
	return nil
}

// NewSketch constructs an empty sketch for a spec.
func NewSketch(sp SketchSpec) (Sketch, error) {
	if sp.Name == "" || sp.Bins <= 0 {
		return Sketch{}, fmt.Errorf("store: bad spec %+v", sp)
	}
	sk := Sketch{Spec: sp}
	switch sp.Kind {
	case "unit":
		sk.Unit = uss.New(sp.Bins, sp.options()...)
	case "weighted":
		sk.Weighted = uss.NewWeighted(sp.Bins, sp.options()...)
	case "sharded":
		shards := sp.Shards
		if shards == 0 {
			shards = 8
		}
		sk.Sharded = uss.NewSharded(shards, sp.Bins, sp.options()...)
	case "rollup":
		r, err := uss.NewRollup(uss.RollupConfig{
			Bins: sp.Bins, WindowLength: sp.WindowLength, Retain: sp.Retain, Seed: sp.Seed,
		})
		if err != nil {
			return Sketch{}, fmt.Errorf("store: sketch %q: %w", sp.Name, err)
		}
		sk.Rollup = r
	default:
		return Sketch{}, fmt.Errorf("store: sketch %q has unknown kind %q", sp.Name, sp.Kind)
	}
	return sk, nil
}

// Restore loads a state blob written by AppendState into an empty
// sketch.
func (sk *Sketch) Restore(state []byte) error {
	switch {
	case sk.Unit != nil:
		return sk.Unit.UnmarshalBinary(state)
	case sk.Weighted != nil:
		return sk.Weighted.UnmarshalBinary(state)
	case sk.Sharded != nil:
		return sk.Sharded.RestoreShards(state)
	case sk.Rollup != nil:
		return sk.Rollup.RestoreWindows(state)
	}
	return fmt.Errorf("store: restore into unconstructed sketch")
}

// AppendState appends the sketch's exact state to dst: AppendBinary for
// unit/weighted, AppendShards for sharded, AppendWindows for rollup. It
// is the checkpoint, cold-blob and anti-entropy encoding.
func (sk *Sketch) AppendState(dst []byte) ([]byte, error) {
	switch {
	case sk.Unit != nil:
		return sk.Unit.AppendBinary(dst)
	case sk.Weighted != nil:
		return sk.Weighted.AppendBinary(dst)
	case sk.Sharded != nil:
		return sk.Sharded.AppendShards(dst)
	case sk.Rollup != nil:
		return sk.Rollup.AppendWindows(dst)
	}
	return nil, fmt.Errorf("store: encode unconstructed sketch %q", sk.Spec.Name)
}

// AppendSnapshot appends the sketch as one flat wire-v2 snapshot (the
// merged shards, for sharded). Rollups report ok=false: their state is
// windowed and has no flat snapshot form.
func (sk *Sketch) AppendSnapshot(dst []byte) (blob []byte, ok bool, err error) {
	switch {
	case sk.Unit != nil:
		blob, err = sk.Unit.AppendBinary(dst)
	case sk.Weighted != nil:
		blob, err = sk.Weighted.AppendBinary(dst)
	case sk.Sharded != nil:
		blob, err = sk.Sharded.Snapshot(0).AppendBinary(dst)
	default:
		return dst, false, nil
	}
	return blob, true, err
}

// ApplyIngest applies one ingest batch and returns the rollup rows
// dropped past the retention horizon. A missing weight defaults to 1
// and a missing timestamp to 0. It touches no counters: the caller
// keeps them, which lets a sharded batch apply without a lock.
func (sk *Sketch) ApplyIngest(items []string, ws []float64, ats []int64) (dropped int64) {
	switch {
	case sk.Unit != nil:
		sk.Unit.UpdateAll(items)
	case sk.Weighted != nil:
		for i, it := range items {
			w := 1.0
			if i < len(ws) {
				w = ws[i]
			}
			sk.Weighted.Update(it, w)
		}
	case sk.Sharded != nil:
		sk.Sharded.UpdateBatch(items)
	case sk.Rollup != nil:
		for i, it := range items {
			var at int64
			if i < len(ats) {
				at = ats[i]
			}
			if !sk.Rollup.Update(it, at) {
				dropped++
			}
		}
	}
	return dropped
}

// MergePushed merges pushed snapshot bins into a weighted sketch through
// MergeBins with reduction red. The weighted sketch is replaced, so
// anything bound to the old one (query engines) must be dropped.
func (sk *Sketch) MergePushed(red uss.Reduction, pushed []uss.Bin) error {
	if sk.Weighted == nil {
		return fmt.Errorf("snapshot pushed into non-weighted sketch %q", sk.Spec.Name)
	}
	m := sk.Spec.Bins
	merged := uss.MergeBins(m, red, sk.Weighted.Bins(), pushed)
	nw, err := uss.NewWeightedFromBins(m, merged, sk.Spec.options()...)
	if err != nil {
		return fmt.Errorf("load merged bins: %w", err)
	}
	sk.Weighted = nw
	return nil
}

// ParseReduction validates a snapshot record's reduction byte.
func ParseReduction(b byte) (uss.Reduction, error) {
	r := uss.Reduction(b)
	switch r {
	case uss.Pairwise, uss.Pivotal, uss.MisraGries:
		return r, nil
	default:
		return 0, fmt.Errorf("unknown reduction byte %d", b)
	}
}
