package main

// uss wal — offline, read-only debugging of a ussd durability directory
// (internal/store layout): inspect prints the checkpoint, per-segment
// health and optionally every record; replay runs the real recovery path
// and summarizes (or exports) the recovered sketches.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	uss "repro"
	"repro/internal/store"
)

// runWAL dispatches the wal subcommands.
func runWAL(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("wal: need a subcommand: inspect or replay")
	}
	switch args[0] {
	case "inspect":
		return runWALInspect(args[1:])
	case "replay":
		return runWALReplay(args[1:])
	default:
		return fmt.Errorf("wal: unknown subcommand %q (want inspect or replay)", args[0])
	}
}

func runWALInspect(args []string) error {
	fs := flag.NewFlagSet("wal inspect", flag.ExitOnError)
	dir := fs.String("dir", "", "ussd data directory (required)")
	records := fs.Bool("records", false, "list every log record")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("wal inspect: -dir is required")
	}

	var each func(rec *store.Record)
	if *records {
		each = func(rec *store.Record) {
			switch rec.TypeName() {
			case "ingest":
				fmt.Printf("  lsn %6d  ingest    %-20s %d rows\n", rec.LSN, rec.Name, len(rec.Items))
			case "snapshot":
				fmt.Printf("  lsn %6d  snapshot  %-20s %d bytes (reduction %d)\n", rec.LSN, rec.Name, len(rec.Blob), rec.Reduction)
			case "create":
				fmt.Printf("  lsn %6d  create    %-20s kind=%s bins=%d\n", rec.LSN, rec.Name, rec.Spec.Kind, rec.Spec.Bins)
			default:
				fmt.Printf("  lsn %6d  %-9s %s\n", rec.LSN, rec.TypeName(), rec.Name)
			}
		}
	}
	rep, err := store.Inspect(*dir, each)
	if err != nil {
		return err
	}
	if rep.CheckpointGen == 0 {
		fmt.Printf("%s: no checkpoint\n", *dir)
	} else {
		fmt.Printf("%s: checkpoint gen %d, cutoff lsn %d, %d sketches\n",
			*dir, rep.CheckpointGen, rep.Cutoff, len(rep.Checkpoint))
		for _, cs := range rep.Checkpoint {
			fmt.Printf("  %-20s %-9s lsn %6d  %8d rows  %8d bytes\n", cs.Name, cs.Kind, cs.LSN, cs.Rows, cs.Bytes)
		}
	}
	fmt.Printf("log: %d segments, last lsn %d\n", len(rep.Segments), rep.LastLSN)
	for _, seg := range rep.Segments {
		status := "ok"
		if seg.Torn {
			status = "TORN: " + seg.TornErr
		}
		fmt.Printf("  %-28s lsn %6d..%-6d %5d records %9dB  %s\n",
			filepath.Base(seg.Path), seg.FirstLSN, seg.LastLSN, seg.Records, seg.Size, status)
	}
	return nil
}

func runWALReplay(args []string) error {
	fs := flag.NewFlagSet("wal replay", flag.ExitOnError)
	dir := fs.String("dir", "", "ussd data directory (required)")
	top := fs.Int("top", 0, "print each sketch's top-K after replay")
	outDir := fs.String("out-dir", "", "write recovered snapshots here (one .sketch per sketch)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("wal replay: -dir is required")
	}
	res, err := store.Rebuild(*dir)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Printf("%s: replayed %d records (skipped %d) over checkpoint gen %d; %d sketches, last lsn %d\n",
		*dir, st.Applied, st.Skipped, st.CheckpointGen, len(res.Sketches), st.LastLSN)
	if st.TornTail {
		fmt.Printf("warning: replay stopped at a torn/corrupt record; earlier state was salvaged\n")
	}
	for _, warn := range st.Warnings {
		fmt.Printf("warning: %s\n", warn)
	}

	names := make([]string, 0, len(res.Sketches))
	for name := range res.Sketches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rb := res.Sketches[name]
		fmt.Printf("%-20s %-9s lsn %6d  %8d rows", name, rb.Spec.Kind, rb.LSN, rb.Rows)
		if rb.Pushes > 0 {
			fmt.Printf("  %d pushes", rb.Pushes)
		}
		if rb.Dropped > 0 {
			fmt.Printf("  %d dropped", rb.Dropped)
		}
		fmt.Println()
		if *top > 0 {
			for i, b := range replayTopK(rb, *top) {
				fmt.Printf("  %3d. %-40s %12.1f\n", i+1, b.Item, b.Count)
			}
		}
		if *outDir != "" {
			blob, ok, err := rb.AppendSnapshot(nil)
			if err != nil {
				return fmt.Errorf("encode %q: %w", name, err)
			}
			if !ok {
				fmt.Printf("  (rollup state is windowed; not exported as a flat snapshot)\n")
				continue
			}
			path := filepath.Join(*outDir, name+".sketch")
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				return err
			}
			fmt.Printf("  wrote %s (%d bytes)\n", path, len(blob))
		}
	}
	return nil
}

// replayTopK answers top-k for any recovered sketch kind (rollups over
// their full retained range).
func replayTopK(rb *store.RebuiltSketch, k int) []uss.Bin {
	switch {
	case rb.Unit != nil:
		return rb.Unit.TopK(k)
	case rb.Weighted != nil:
		return rb.Weighted.TopK(k)
	case rb.Sharded != nil:
		return rb.Sharded.TopK(k)
	case rb.Rollup != nil:
		if ws := rb.Rollup.Windows(); len(ws) > 0 {
			return rb.Rollup.TopKRange(ws[0], ws[len(ws)-1], k)
		}
	}
	return nil
}
