// Command prefsql is an interactive shell and script runner for
// Preference SQL, over an embedded in-memory database or — with -addr —
// a remote prefserve instance.
//
// Usage:
//
//	prefsql                 # interactive shell on an empty embedded database
//	prefsql -f script.sql   # run a script, then exit
//	prefsql -f setup.sql -i # run a script, then drop into the shell
//	prefsql -addr :7654     # shell against a running prefserve
//
// Shell commands besides SQL statements (terminated by ';'):
//
//	\explain SELECT ...   show the SQL92 rewriting of a preference query
//	\plan SELECT ...      show the native operator plan (BMO algorithm,
//	                      vectorized fill, worker cap)
//	\mode native|rewrite  switch the execution strategy (per session)
//	\algo auto|nl|bnl|parallel  select the native BMO algorithm
//	                      (per session; `SET algorithm = ...` works as SQL too)
//	\tables               list tables and views
//	\prefs                list named preferences (CREATE PREFERENCE ...)
//	\stats                show engine metrics and the last statement's
//	                      execution statistics (per-operator plan included);
//	                      over -addr, the server-reported statistics;
//	                      embedded, also each active subscription's counters
//	\watch SELECT ...     subscribe to a continuous query: print the result
//	                      set, then stream +/- deltas as writers change it
//	                      (incremental skyline maintenance); Enter stops
//	\q                    quit
//
// Session settings are also plain SQL statements, embedded or remote:
// `SET mode = rewrite`, `SET algorithm = parallel`, `SET workers = 4`.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	prefsql "repro"
	"repro/client"
	"repro/internal/bmo"
	"repro/internal/metrics"
)

// backend abstracts the embedded database and a remote server
// connection behind the shell's commands.
type backend interface {
	exec(sql string) (*prefsql.Result, error)
	// watch registers a continuous query; the stream ends when ctx is
	// cancelled (see \watch in repl).
	watch(ctx context.Context, sql string) (watchStream, error)
	setMode(m prefsql.Mode) error
	setAlgo(a prefsql.Algorithm) error
	explain(sql string) (string, error)
	plan(sql string) (string, error)
	tables() ([]string, error)
	prefs() ([]string, error)
	stats() (string, error)
	close()
}

// watchStream normalizes the embedded and remote subscription APIs for
// the \watch loop: next blocks for one delta and reports false when the
// stream ended (err distinguishes a clean stop from a failure).
type watchStream interface {
	columns() []string
	initial() []prefsql.Row
	next() (add bool, row prefsql.Row, ok bool)
	err() error
}

type embeddedBackend struct{ db *prefsql.DB }

type embeddedWatch struct{ sub *prefsql.Subscription }

func (w embeddedWatch) columns() []string      { return w.sub.Columns() }
func (w embeddedWatch) initial() []prefsql.Row { return w.sub.Initial() }
func (w embeddedWatch) err() error             { return w.sub.Err() }
func (w embeddedWatch) next() (bool, prefsql.Row, bool) {
	d, ok := <-w.sub.C()
	return d.Op == prefsql.OpAdd, d.Row, ok
}

func (b embeddedBackend) watch(ctx context.Context, sql string) (watchStream, error) {
	sub, err := b.db.Subscribe(ctx, sql)
	if err != nil {
		return nil, err
	}
	return embeddedWatch{sub: sub}, nil
}

func (b embeddedBackend) exec(sql string) (*prefsql.Result, error) { return b.db.Exec(sql) }
func (b embeddedBackend) setMode(m prefsql.Mode) error             { b.db.SetMode(m); return nil }
func (b embeddedBackend) setAlgo(a prefsql.Algorithm) error        { b.db.SetAlgorithm(a); return nil }
func (b embeddedBackend) explain(sql string) (string, error)       { return b.db.ExplainRewrite(sql) }
func (b embeddedBackend) plan(sql string) (string, error)          { return b.db.ExplainNative(sql) }
func (b embeddedBackend) close()                                   {}

func (b embeddedBackend) tables() ([]string, error) {
	cat := b.db.Internal().Engine().Catalog()
	var out []string
	for _, name := range cat.TableNames() {
		tbl, _ := cat.Table(name)
		out = append(out, fmt.Sprintf("table %s (%d rows)", name, tbl.RowCount()))
	}
	for _, name := range cat.ViewNames() {
		out = append(out, "view  "+name)
	}
	return out, nil
}

func (b embeddedBackend) prefs() ([]string, error) {
	var out []string
	for _, name := range b.db.Internal().PreferenceNames() {
		out = append(out, "preference "+name)
	}
	return out, nil
}

func (b embeddedBackend) stats() (string, error) {
	var sb strings.Builder
	sb.WriteString("-- engine metrics --\n")
	for _, s := range metrics.Default.Snapshot() {
		series := s.Name
		if s.Labels != "" {
			series += "{" + s.Labels + "}"
		}
		if s.Type == "histogram" {
			fmt.Fprintf(&sb, "%-48s count=%d sum=%.3fs p50=%.3fms p95=%.3fms p99=%.3fms\n",
				series, s.Count, s.Sum,
				s.Quants["p50"]*1000, s.Quants["p95"]*1000, s.Quants["p99"]*1000)
			continue
		}
		fmt.Fprintf(&sb, "%-48s %d\n", series, s.Value)
	}
	if subs := b.db.Internal().Live().Active(); len(subs) > 0 {
		sb.WriteString("\n-- active subscriptions --\n")
		for _, sub := range subs {
			st := sub.Stats()
			fmt.Fprintf(&sb, "#%d %s\n", st.ID, st.SQL)
			fmt.Fprintf(&sb, "   skyline=%d shadow=%d seq=%d adds=%d removes=%d changes=%d compares=%d requalified=%d queue=%d/%d\n",
				st.Skyline, st.Shadow, st.LastSeq, st.Adds, st.Removes,
				st.Changes, st.Compares, st.Requalified, st.Queued, st.QueueCap)
		}
	}
	if st := b.db.Internal().DefaultSession().LastStats(); st != nil {
		fmt.Fprintf(&sb, "\n-- last statement (%s, %v, %d rows) --\n%s\n",
			st.Kind, st.Duration.Round(time.Microsecond), st.Rows, strings.TrimSpace(st.SQL))
		if st.Plan != "" {
			sb.WriteString(st.Plan)
		}
	}
	return sb.String(), nil
}

type remoteBackend struct{ c *client.Conn }

type remoteWatch struct{ sub *client.Sub }

func (w remoteWatch) columns() []string      { return w.sub.Columns() }
func (w remoteWatch) initial() []prefsql.Row { return w.sub.Initial() }
func (w remoteWatch) next() (bool, prefsql.Row, bool) {
	if !w.sub.Next() {
		return false, nil, false
	}
	d := w.sub.Delta()
	return d.Op == client.DeltaAdd, d.Row, true
}

func (w remoteWatch) err() error {
	// Cancelling \watch's context is the intended way to stop.
	if err := w.sub.Err(); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

func (b remoteBackend) watch(ctx context.Context, sql string) (watchStream, error) {
	sub, err := b.c.Subscribe(ctx, sql)
	if err != nil {
		return nil, err
	}
	return remoteWatch{sub: sub}, nil
}

func (b remoteBackend) exec(sql string) (*prefsql.Result, error) { return b.c.Exec(sql) }
func (b remoteBackend) setMode(m prefsql.Mode) error             { return b.c.SetMode(m) }
func (b remoteBackend) setAlgo(a prefsql.Algorithm) error        { return b.c.SetAlgorithm(a) }
func (b remoteBackend) close()                                   { b.c.Close() }

func (b remoteBackend) explain(sql string) (string, error) {
	return b.c.Explain(client.ExplainRewrite, sql)
}
func (b remoteBackend) plan(sql string) (string, error) {
	return b.c.Explain(client.ExplainPlan, sql)
}
func (b remoteBackend) tables() ([]string, error) {
	return nil, fmt.Errorf("\\tables is not supported over -addr")
}
func (b remoteBackend) prefs() ([]string, error) {
	return nil, fmt.Errorf("\\prefs is not supported over -addr")
}

func (b remoteBackend) stats() (string, error) {
	st := b.c.LastStats()
	if st == nil {
		return "", fmt.Errorf("no statistics yet — run a query first")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "-- last statement (server-reported) --\n")
	fmt.Fprintf(&sb, "duration    %v\n", time.Duration(st.Nanos).Round(time.Microsecond))
	fmt.Fprintf(&sb, "rows        %d\n", st.Rows)
	fmt.Fprintf(&sb, "scanned     %d\n", st.RowsScanned)
	fmt.Fprintf(&sb, "probes      %d\n", st.IndexProbes)
	fmt.Fprintf(&sb, "join_in     %d\n", st.JoinInputRows)
	fmt.Fprintf(&sb, "bmo_in      %d\n", st.BMOInputRows)
	fmt.Fprintf(&sb, "bmo_out     %d\n", st.BMOOutputRows)
	if st.VecBlocksScanned > 0 {
		fmt.Fprintf(&sb, "vec_blocks  %d (pruned %d)\n", st.VecBlocksScanned, st.VecBlocksPruned)
	}
	if st.Plan != "" {
		sb.WriteString(st.Plan)
	}
	return sb.String(), nil
}

func main() {
	var (
		file        = flag.String("f", "", "SQL script to execute")
		interactive = flag.Bool("i", false, "enter the shell after -f")
		timing      = flag.Bool("timing", false, "print execution time per statement")
		addr        = flag.String("addr", "", "connect to a prefserve instance instead of embedding")
	)
	flag.Parse()

	var db backend
	if *addr != "" {
		conn, err := client.Dial(*addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prefsql: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("connected to %s (%s, session %d)\n", *addr, conn.Banner(), conn.SessionID())
		// Ask the server for per-statement statistics so \stats has
		// something to show.
		conn.RequestStats(true)
		db = remoteBackend{c: conn}
	} else {
		edb := prefsql.Open()
		// Record per-operator statistics so \stats can show the last
		// statement's annotated plan (interactive use; the overhead is
		// irrelevant at shell speed).
		edb.Internal().DefaultSession().SetRecordNodeStats(true)
		db = embeddedBackend{db: edb}
	}
	defer db.close()

	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prefsql: %v\n", err)
			os.Exit(1)
		}
		if err := runStatement(db, string(data), *timing); err != nil {
			fmt.Fprintf(os.Stderr, "prefsql: %v\n", err)
			os.Exit(1)
		}
		if !*interactive {
			return
		}
	}
	repl(db, *timing)
}

func repl(db backend, timing bool) {
	fmt.Println("Preference SQL shell — end statements with ';', \\q to quit")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "prefsql> "
	for {
		fmt.Print(prompt)
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			// \watch needs the scanner (Enter stops the stream), so it is
			// handled here rather than in command.
			if strings.HasPrefix(trimmed, "\\watch") {
				arg := strings.TrimSpace(strings.TrimPrefix(trimmed, "\\watch"))
				runWatch(db, arg, scanner)
				continue
			}
			if done := command(db, trimmed); done {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			stmt := buf.String()
			buf.Reset()
			prompt = "prefsql> "
			if err := runStatement(db, stmt, timing); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
			continue
		}
		if buf.Len() > 0 {
			prompt = "    ...> "
		}
	}
}

// runWatch subscribes to a continuous query and streams its deltas to
// the terminal — the initial result set first, then one '+'/'-' line per
// change as writers commit — until the user presses Enter.
func runWatch(db backend, sql string, scanner *bufio.Scanner) {
	if strings.TrimSuffix(sql, ";") == "" {
		fmt.Fprintln(os.Stderr, "usage: \\watch SELECT ... [PREFERRING ...]")
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := db.watch(ctx, strings.TrimSuffix(sql, ";"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	fmt.Printf("watching (%s) — press Enter to stop\n", strings.Join(w.columns(), ", "))
	for _, row := range w.initial() {
		fmt.Printf("  %s\n", formatRow(row))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			add, row, ok := w.next()
			if !ok {
				return
			}
			sign := "-"
			if add {
				sign = "+"
			}
			fmt.Printf("%s %s\n", sign, formatRow(row))
		}
	}()
	// Enter (or EOF) stops the watch: cancel ends the subscription, the
	// delta printer drains to the stream's end and exits.
	scanner.Scan()
	cancel()
	<-done
	if err := w.err(); err != nil {
		fmt.Fprintf(os.Stderr, "watch ended: %v\n", err)
	}
}

func formatRow(row prefsql.Row) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
	}
	return strings.Join(parts, " | ")
}

// command handles backslash meta-commands; it reports whether to quit.
func command(db backend, line string) bool {
	parts := strings.SplitN(line, " ", 2)
	arg := ""
	if len(parts) == 2 {
		arg = strings.TrimSpace(parts[1])
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
	}
	switch parts[0] {
	case "\\q", "\\quit", "\\exit":
		return true
	case "\\explain":
		script, err := db.explain(strings.TrimSuffix(arg, ";"))
		if err != nil {
			fail(err)
			return false
		}
		fmt.Println(script)
	case "\\plan":
		out, err := db.plan(strings.TrimSuffix(arg, ";"))
		if err != nil {
			fail(err)
			return false
		}
		fmt.Print(out)
	case "\\mode":
		switch arg {
		case "native":
			if err := db.setMode(prefsql.ModeNative); err != nil {
				fail(err)
			}
		case "rewrite":
			if err := db.setMode(prefsql.ModeRewrite); err != nil {
				fail(err)
			}
		default:
			fmt.Fprintln(os.Stderr, "usage: \\mode native|rewrite")
		}
	case "\\algo":
		a, ok := bmo.ParseToken(arg)
		if !ok {
			fmt.Fprintln(os.Stderr, "usage: \\algo auto|nl|bnl|parallel")
			break
		}
		if err := db.setAlgo(a); err != nil {
			fail(err)
		}
	case "\\prefs":
		lines, err := db.prefs()
		if err != nil {
			fail(err)
			break
		}
		for _, l := range lines {
			fmt.Println(l)
		}
	case "\\tables":
		lines, err := db.tables()
		if err != nil {
			fail(err)
			break
		}
		for _, l := range lines {
			fmt.Println(l)
		}
	case "\\stats":
		out, err := db.stats()
		if err != nil {
			fail(err)
			break
		}
		fmt.Print(out)
	default:
		fmt.Fprintf(os.Stderr, "unknown command %s\n", parts[0])
	}
	return false
}

func runStatement(db backend, sql string, timing bool) error {
	start := time.Now()
	res, err := db.exec(sql)
	if err != nil {
		return err
	}
	fmt.Print(prefsql.Format(res))
	if timing {
		fmt.Printf("(%v)\n", time.Since(start).Round(time.Microsecond))
	}
	return nil
}
