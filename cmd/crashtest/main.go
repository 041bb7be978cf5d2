// Command crashtest is the durability torture harness: it proves that a
// kill -9 at an arbitrary point never loses an acknowledged commit.
//
// The binary plays both roles. The parent re-execs itself with -child
// pointed at a shared data directory; the child opens the durable
// backend, recovers whatever a previous incarnation left behind, and
// appends sequentially numbered rows in small batches, printing
// "ACK <seq>" only AFTER the commit has returned (i.e. after its group
// fsync). The parent reads acks off the pipe, waits a randomized
// interval, SIGKILLs the child mid-flight, then reopens the directory
// in-process and checks the recovered table:
//
//   - the recovered sequence numbers are exactly 1..k with no gaps
//     (the WAL admits only prefixes of the commit order), and
//   - k >= the highest acknowledged seq (durability: acknowledged
//     commits survive), while unacknowledged trailing commits may or
//     may not — both are correct outcomes.
//
// The child also checkpoints every checkpointEvery batches, printing
// "CKPT <gen>" after each, so some kills land while the next
// generation's image is being written or MANIFEST is being swapped.
// Each iteration then closes the backend cleanly (checkpointing the
// recovered state), so every child starts from a fresh image and every
// verify replays an image plus the killed child's WAL tail.
//
// Usage:
//
//	crashtest -iters 25 -dir /tmp/crash -log crash.log
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage/disk"
	"repro/internal/storage/wal"
)

// checkpointEvery is how many acknowledged batches the child writes
// between checkpoints.
const checkpointEvery = 25

func main() {
	var (
		child     = flag.Bool("child", false, "run as the writer child (internal)")
		dir       = flag.String("dir", "", "data directory (parent default: a fresh temp dir)")
		iters     = flag.Int("iters", 25, "kill/recover iterations")
		seed      = flag.Int64("seed", 0, "randomization seed; 0 = time-based")
		fsyncMode = flag.String("fsync", "always", "WAL sync mode for the writer child")
		minKill   = flag.Duration("min-kill", 20*time.Millisecond, "minimum time before SIGKILL")
		maxKill   = flag.Duration("max-kill", 250*time.Millisecond, "maximum time before SIGKILL")
		logPath   = flag.String("log", "", "also append the iteration log to this file")
	)
	flag.Parse()

	mode, err := wal.ParseSyncMode(*fsyncMode)
	if err != nil {
		log.Fatalf("crashtest: %v", err)
	}
	if *child {
		if *dir == "" {
			log.Fatal("crashtest: -child requires -dir")
		}
		runChild(*dir, mode)
		return
	}
	if err := runParent(*dir, *iters, *seed, *fsyncMode, *minKill, *maxKill, *logPath); err != nil {
		log.Fatalf("crashtest: FAIL: %v", err)
	}
}

// runChild is the victim process: recover, then append acknowledged
// batches until killed. It never exits on its own.
func runChild(dir string, mode wal.SyncMode) {
	d, stats, err := disk.Open(dir, disk.Options{Sync: mode})
	if err != nil {
		log.Fatalf("crashtest child: open: %v", err)
	}
	db := core.OpenOn(engine.NewOn(d.Catalog()))
	if _, ok := d.Catalog().Table("events"); !ok {
		if _, err := db.Exec(`CREATE TABLE events (seq INT PRIMARY KEY, payload TEXT)`); err != nil {
			log.Fatalf("crashtest child: create: %v", err)
		}
	}
	seq := recoveredMax(db)

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "START %d recovered_rows=%d wal_records=%d torn_bytes=%d\n",
		seq, stats.HeapRows, stats.WalRecords, stats.TornBytes)
	w.Flush()

	rng := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(os.Getpid())))
	for batch := 1; ; batch++ {
		// Small batches with the occasional large payload, so the kill
		// lands at varied spots: mid-batch, mid-group-commit, mid-record.
		n := 1 + rng.Intn(4)
		var sb strings.Builder
		sb.WriteString(`INSERT INTO events VALUES `)
		for j := 0; j < n; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			payload := fmt.Sprintf("payload-%d", seq+j+1)
			if rng.Intn(20) == 0 {
				payload = strings.Repeat("x", 8192+rng.Intn(8192))
			}
			fmt.Fprintf(&sb, "(%d, '%s')", seq+j+1, payload)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			log.Fatalf("crashtest child: insert at seq %d: %v", seq+1, err)
		}
		seq += n
		// The commit has returned, so its WAL record is fsynced (in
		// "always" mode): from here on the parent holds us to it.
		fmt.Fprintf(w, "ACK %d\n", seq)
		w.Flush()
		if batch%checkpointEvery == 0 {
			if err := db.Checkpoint(d); err != nil {
				log.Fatalf("crashtest child: checkpoint at seq %d: %v", seq, err)
			}
			fmt.Fprintf(w, "CKPT %d\n", d.Generation())
			w.Flush()
		}
	}
}

// recoveredMax returns the highest committed sequence number; recovery
// guarantees the sequence is a contiguous prefix, but the max is read
// directly so a violated invariant surfaces in verify, not here.
func recoveredMax(db *core.DB) int {
	res, err := db.Query(`SELECT seq FROM events`)
	if err != nil {
		log.Fatalf("crashtest child: recovery scan: %v", err)
	}
	max := 0
	for _, r := range res.Rows {
		if n := int(r[0].I); n > max {
			max = n
		}
	}
	return max
}

func runParent(dir string, iters int, seed int64, fsyncMode string, minKill, maxKill time.Duration, logPath string) error {
	if dir == "" {
		d, err := os.MkdirTemp("", "crashtest-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	out := io.Writer(os.Stderr)
	if logPath != "" {
		f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(os.Stderr, f)
	}
	lg := log.New(out, "", log.LstdFlags|log.Lmicroseconds)
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	lg.Printf("crashtest: %d iterations, dir=%s, fsync=%s, seed=%d", iters, dir, fsyncMode, seed)

	prevRecovered := 0
	for i := 1; i <= iters; i++ {
		cmd := exec.Command(exe, "-child", "-dir", dir, "-fsync", fsyncMode)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		var maxAck, ckpts atomic.Int64
		var startLine atomic.Value
		go func() {
			sc := bufio.NewScanner(pipe)
			for sc.Scan() {
				line := sc.Text()
				var n int
				if _, err := fmt.Sscanf(line, "ACK %d", &n); err == nil {
					maxAck.Store(int64(n))
				} else if strings.HasPrefix(line, "CKPT ") {
					ckpts.Add(1)
				} else if strings.HasPrefix(line, "START ") {
					startLine.Store(line)
				}
			}
		}()

		delay := minKill + time.Duration(rng.Int63n(int64(maxKill-minKill)+1))
		time.Sleep(delay)
		if err := cmd.Process.Kill(); err != nil {
			return fmt.Errorf("iter %d: kill: %w", i, err)
		}
		cmd.Wait() // expected to report the SIGKILL
		acked := int(maxAck.Load())

		// The child must have picked up exactly where the last
		// verification left off.
		if sl, ok := startLine.Load().(string); ok {
			var started int
			if _, err := fmt.Sscanf(sl, "START %d", &started); err == nil && started != prevRecovered {
				return fmt.Errorf("iter %d: child recovered to seq %d, parent verified %d (%s)", i, started, prevRecovered, sl)
			}
		}

		// Durability floor: everything verified last iteration plus
		// everything this child acknowledged. (Acks are absolute seqs,
		// so a child killed pre-ack leaves the floor at prevRecovered.)
		floor := acked
		if prevRecovered > floor {
			floor = prevRecovered
		}
		recovered, stats, err := verify(dir, i, floor)
		if err != nil {
			return err
		}
		lg.Printf("iter %02d/%d: killed after %v, acked=%d recovered=%d (+%d unacked) checkpoints=%d image_rows=%d wal_records=%d torn_bytes=%d",
			i, iters, delay.Round(time.Millisecond), acked, recovered, recovered-floor, ckpts.Load(), stats.HeapRows, stats.WalRecords, stats.TornBytes)
		prevRecovered = recovered
	}
	lg.Printf("crashtest: PASS %d/%d iterations, %d rows survived", iters, iters, prevRecovered)
	return nil
}

// verify reopens the data directory in-process, checks the recovered
// table against the durability contract, and leaves behind a clean
// checkpoint for the next iteration.
func verify(dir string, iter, floor int) (int, disk.RecoveryStats, error) {
	d, stats, err := disk.Open(dir, disk.Options{Sync: wal.SyncOff})
	if err != nil {
		return 0, stats, fmt.Errorf("iter %d: recovery open: %w", iter, err)
	}
	db := core.OpenOn(engine.NewOn(d.Catalog()))

	recovered := 0
	if _, ok := d.Catalog().Table("events"); !ok {
		// Killed before even the CREATE TABLE committed: legal only if
		// nothing had ever been acknowledged or verified.
		if floor > 0 {
			return 0, stats, fmt.Errorf("iter %d: committed through seq %d but table lost", iter, floor)
		}
	} else {
		res, err := db.Query(`SELECT seq FROM events`)
		if err != nil {
			return 0, stats, fmt.Errorf("iter %d: scan: %w", iter, err)
		}
		seqs := make([]int, 0, len(res.Rows))
		for _, r := range res.Rows {
			seqs = append(seqs, int(r[0].I))
		}
		sort.Ints(seqs)
		for j, s := range seqs {
			if s != j+1 {
				return 0, stats, fmt.Errorf("iter %d: recovered sequence has a gap: position %d holds seq %d", iter, j, s)
			}
		}
		recovered = len(seqs)
		if recovered < floor {
			return 0, stats, fmt.Errorf("iter %d: lost acknowledged commits: committed through seq %d, recovered only %d rows", iter, floor, recovered)
		}
	}
	if err := d.Close(); err != nil {
		return 0, stats, fmt.Errorf("iter %d: checkpoint close: %w", iter, err)
	}
	return recovered, stats, nil
}
