package bench

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/storage/disk"
	"repro/internal/storage/wal"
)

// P10Entry is one measurement of the durable-storage experiment: the
// same bulk load plus mixed read/write workload over one input size, on
// the in-memory backend or the disk backend (WAL + checkpoint image) with the
// per-commit fsync off or on. Ratio is mixed-workload throughput
// relative to the in-memory run at the same size; for disk variants the
// entry also records a crash-style reopen (WAL replay, no clean
// shutdown) of the directory the workload just wrote.
type P10Entry struct {
	Rows          int     `json:"rows"`
	Variant       string  `json:"variant"` // "memory" | "disk" | "disk-fsync"
	LoadMillis    float64 `json:"load_ms"`
	MixedMillis   float64 `json:"mixed_ms"`
	Ops           int     `json:"ops"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	SkylineSize   int     `json:"skyline_size"`
	Ratio         float64 `json:"ratio_vs_memory"`
	RecoverMillis float64 `json:"recover_ms,omitempty"`
	RecoverRows   int     `json:"recover_rows,omitempty"`
	WalReplayed   int     `json:"wal_replayed,omitempty"`
}

// P10Result is the full experiment outcome, the payload of BENCH_p10.json.
type P10Result struct {
	Entries []P10Entry `json:"entries"`
}

const p10Query = `SELECT id FROM pts PREFERRING LOWEST(d1) AND LOWEST(d2)`

// p10Workload drives the deterministic mixed phase: mostly single-row
// inserts (the commit path this experiment is about), a quarter indexed
// point reads, and a trickle of updates and deletes (which the engine
// evaluates as full scans — enough to exercise their log-and-replay
// path without the scan cost drowning the commit cost being measured).
// The same seed produces the same statement sequence on every backend,
// so final states must agree bit for bit.
func p10Workload(db *core.DB, n, ops int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	nextID := n
	for i := 0; i < ops; i++ {
		switch k := rng.Intn(100); {
		case k < 70:
			nextID++
			_, err := db.Exec(fmt.Sprintf(`INSERT INTO pts VALUES (%d, %.6f, %.6f)`,
				nextID, rng.Float64(), rng.Float64()))
			if err != nil {
				return err
			}
		case k < 95:
			_, err := db.Query(fmt.Sprintf(`SELECT d1, d2 FROM pts WHERE id = %d`,
				1+rng.Intn(nextID)))
			if err != nil {
				return err
			}
		case k < 99:
			_, err := db.Exec(fmt.Sprintf(`UPDATE pts SET d1 = %.6f WHERE id = %d`,
				rng.Float64(), 1+rng.Intn(nextID)))
			if err != nil {
				return err
			}
		default:
			_, err := db.Exec(fmt.Sprintf(`DELETE FROM pts WHERE id = %d`,
				1+rng.Intn(nextID)))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// p10Skyline runs the identity-check query and returns the sorted
// result keys, the canonical image of the surviving skyline.
func p10Skyline(db *core.DB) ([]string, error) {
	res, err := db.Query(p10Query)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return keys, nil
}

// P10 measures what durability costs: the same bulk load and mixed
// read/write workload over 2-d skyline data, on (a) the in-memory
// backend, (b) the disk backend with the per-commit fsync off (every
// commit is still WAL-logged, but the OS decides when it
// hits the platter), and (c) the disk backend with fsync on, where a
// commit returns only after its group fsync. The final skyline of every
// variant must be identical — durability may cost time, never answers.
// Disk variants finish with a crash-style reopen (the handle is
// abandoned, not closed) timing WAL replay into a fresh catalog.
func P10(cfg Config) (*P10Result, *Table, error) {
	sizes := cfg.P10Sizes
	if len(sizes) == 0 {
		sizes = []int{100000, 1000000}
	}
	ops := cfg.P10Ops
	if ops == 0 {
		ops = 5000
	}
	out := &P10Result{}
	cols := datagen.SkylineColumns(2)

	for _, n := range sizes {
		rows := datagen.Skyline(n, 2, datagen.Independent, cfg.Seed)
		var memOps float64
		var memSkyline []string
		for _, variant := range []string{"memory", "disk", "disk-fsync"} {
			entry := P10Entry{Rows: n, Variant: variant, Ops: ops}

			var db *core.DB
			var dir string
			switch variant {
			case "memory":
				db = core.Open()
			default:
				mode := wal.SyncOff
				if variant == "disk-fsync" {
					mode = wal.SyncAlways
				}
				d, err := os.MkdirTemp("", "bench-p10-*")
				if err != nil {
					return nil, nil, err
				}
				defer os.RemoveAll(d)
				dir = d
				bk, _, err := disk.Open(dir, disk.Options{Sync: mode})
				if err != nil {
					return nil, nil, err
				}
				db = core.OpenOn(engine.NewOn(bk.Catalog()))
			}

			t0 := time.Now()
			if err := datagen.Load(db.Engine(), "pts", cols, rows); err != nil {
				return nil, nil, err
			}
			entry.LoadMillis = float64(time.Since(t0).Nanoseconds()) / 1e6
			if _, err := db.Exec(`CREATE INDEX idx_pts_id ON pts (id)`); err != nil {
				return nil, nil, err
			}

			t0 = time.Now()
			if err := p10Workload(db, n, ops, cfg.Seed+int64(n)); err != nil {
				return nil, nil, err
			}
			entry.MixedMillis = float64(time.Since(t0).Nanoseconds()) / 1e6
			if entry.MixedMillis > 0 {
				entry.OpsPerSec = float64(ops) / (entry.MixedMillis / 1e3)
			}

			sky, err := p10Skyline(db)
			if err != nil {
				return nil, nil, err
			}
			entry.SkylineSize = len(sky)
			switch variant {
			case "memory":
				memOps = entry.OpsPerSec
				memSkyline = sky
				entry.Ratio = 1.0
			default:
				if strings.Join(sky, "\n") != strings.Join(memSkyline, "\n") {
					return nil, nil, fmt.Errorf("bench: p10 %s skyline diverged from memory at n=%d (%d vs %d rows)",
						variant, n, len(sky), len(memSkyline))
				}
				if memOps > 0 {
					entry.Ratio = entry.OpsPerSec / memOps
				}
				// Crash-style recovery: reopen the directory without a
				// clean close, so the image-plus-WAL replay path runs.
				t0 = time.Now()
				rec, stats, err := disk.Open(dir, disk.Options{Sync: wal.SyncOff})
				if err != nil {
					return nil, nil, err
				}
				entry.RecoverMillis = float64(time.Since(t0).Nanoseconds()) / 1e6
				entry.RecoverRows = stats.HeapRows
				entry.WalReplayed = stats.WalRecords
				rsky, err := p10Skyline(core.OpenOn(engine.NewOn(rec.Catalog())))
				if err != nil {
					return nil, nil, err
				}
				if strings.Join(rsky, "\n") != strings.Join(memSkyline, "\n") {
					return nil, nil, fmt.Errorf("bench: p10 %s post-recovery skyline diverged at n=%d", variant, n)
				}
				if err := rec.Close(); err != nil {
					return nil, nil, err
				}
			}
			out.Entries = append(out.Entries, entry)
		}
	}

	tbl := &Table{
		Title:  "P10: durable storage overhead — in-memory vs WAL + checkpoint image (mixed read/write over 2-d skyline data)",
		Header: []string{"rows", "variant", "load", "mixed", "ops/s", "ratio vs memory", "skyline", "recovery"},
		Notes: []string{
			"mixed workload: 70% single-row inserts, 25% indexed point reads, 4% updates, 1% deletes; identical statement sequence per variant",
			"disk: every commit WAL-logged, fsync left to the OS; disk-fsync: commit returns after its group fsync",
			"recovery: crash-style reopen (no clean shutdown) replaying the WAL tail into a fresh catalog; skyline re-checked after replay",
			"gate: disk ops/s ratio at the largest size (quick CI floor 0.25 — fsync cost is hardware-dependent, so the gate is a catastrophe check)",
		},
	}
	for _, e := range out.Entries {
		rec := "-"
		if e.Variant != "memory" {
			rec = fmt.Sprintf("%.1fms (%d rows, %d wal)", e.RecoverMillis, e.RecoverRows, e.WalReplayed)
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", e.Rows),
			e.Variant,
			fmt.Sprintf("%.1fms", e.LoadMillis),
			fmt.Sprintf("%.1fms", e.MixedMillis),
			fmt.Sprintf("%.0f", e.OpsPerSec),
			fmt.Sprintf("%.2fx", e.Ratio),
			fmt.Sprintf("%d", e.SkylineSize),
			rec,
		})
	}
	return out, tbl, nil
}
