package live

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bmo"
	"repro/internal/preference"
	"repro/internal/storage"
	"repro/internal/value"
)

func ptsTable() *storage.Table {
	return storage.NewTable("pts", storage.Schema{Cols: []storage.Column{
		{Name: "id", Kind: value.Int, PrimaryKey: true, NotNull: true},
		{Name: "x", Kind: value.Float},
		{Name: "y", Kind: value.Float},
	}})
}

func pt(id int64, x, y float64) value.Row {
	return value.Row{value.NewInt(id), value.NewFloat(x), value.NewFloat(y)}
}

func lowlow() preference.Preference {
	get := func(col int) preference.Getter {
		return func(r value.Row) (value.Value, error) { return r[col], nil }
	}
	return &preference.Pareto{Parts: []preference.Preference{
		&preference.Lowest{Get: get(1), Label: "x"},
		&preference.Lowest{Get: get(2), Label: "y"},
	}}
}

func subscribe(t *testing.T, tbl *storage.Table, queue int) *Subscription {
	t.Helper()
	reg := NewRegistry()
	sub, err := reg.Subscribe(Spec{
		SQL:   "SUBSCRIBE SELECT * FROM pts PREFERRING LOWEST(x) AND LOWEST(y)",
		Table: tbl, Columns: []string{"id", "x", "y"},
		Pref: lowlow(), Queue: queue,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// apply folds queued deltas into a key-counted multiset state.
func drain(sub *Subscription, state map[string]int) {
	for {
		select {
		case d := <-sub.C():
			if d.Op == OpAdd {
				state[d.Row.Key()]++
			} else {
				state[d.Row.Key()]--
				if state[d.Row.Key()] == 0 {
					delete(state, d.Row.Key())
				}
			}
		default:
			return
		}
	}
}

func canon(state map[string]int) string {
	keys := make([]string, 0, len(state))
	for k, n := range state {
		for i := 0; i < n; i++ {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func skylineOf(t *testing.T, p preference.Preference, rows []value.Row) string {
	t.Helper()
	best, err := bmo.Evaluate(p, rows, bmo.Auto)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(best))
	for i, r := range best {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func TestIncrementalMatchesRecompute(t *testing.T) {
	tbl := ptsTable()
	for i := 0; i < 50; i++ {
		if err := tbl.Insert(pt(int64(i), float64(i%10), float64((i*7)%10))); err != nil {
			t.Fatal(err)
		}
	}
	sub := subscribe(t, tbl, 4096)
	defer sub.Close()

	state := map[string]int{}
	for _, r := range sub.Initial() {
		state[r.Key()]++
	}

	rng := rand.New(rand.NewSource(42))
	nextID := int64(1000)
	for op := 0; op < 600; op++ {
		switch rng.Intn(3) {
		case 0:
			nextID++
			if err := tbl.Insert(pt(nextID, rng.Float64()*10, rng.Float64()*10)); err != nil {
				t.Fatal(err)
			}
		case 1:
			target := rng.Int63n(nextID)
			if _, err := tbl.Delete(func(r value.Row) (bool, error) {
				return r[0].I == target, nil
			}); err != nil {
				t.Fatal(err)
			}
		default:
			target := rng.Int63n(nextID)
			nx, ny := rng.Float64()*10, rng.Float64()*10
			if _, err := tbl.Update(
				func(r value.Row) (bool, error) { return r[0].I == target, nil },
				func(r value.Row) (value.Row, error) {
					r[1], r[2] = value.NewFloat(nx), value.NewFloat(ny)
					return r, nil
				},
			); err != nil {
				t.Fatal(err)
			}
		}
		if op%50 == 0 {
			drain(sub, state)
			if got, want := canon(state), skylineOf(t, lowlow(), tbl.Rows()); got != want {
				t.Fatalf("op %d: incremental state diverged\ngot:\n%s\nwant:\n%s", op, got, want)
			}
		}
	}
	drain(sub, state)
	if got, want := canon(state), skylineOf(t, lowlow(), tbl.Rows()); got != want {
		t.Fatalf("final state diverged\ngot:\n%s\nwant:\n%s", got, want)
	}
	if sub.Err() != nil {
		t.Fatalf("subscription died: %v", sub.Err())
	}
	st := sub.Stats()
	if st.Changes == 0 || st.Compares == 0 {
		t.Fatalf("maintenance counters not moving: %+v", st)
	}
}

func TestSeqContiguous(t *testing.T) {
	tbl := ptsTable()
	sub := subscribe(t, tbl, 4096)
	defer sub.Close()
	for i := 0; i < 200; i++ {
		if err := tbl.Insert(pt(int64(i), float64(200-i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	want := int64(1)
	for {
		select {
		case d := <-sub.C():
			if d.Seq != want {
				t.Fatalf("seq gap: got %d want %d", d.Seq, want)
			}
			want++
		default:
			if want-1 != sub.LastSeq() {
				t.Fatalf("drained to %d but LastSeq=%d", want-1, sub.LastSeq())
			}
			return
		}
	}
}

func TestSlowConsumerEvicted(t *testing.T) {
	tbl := ptsTable()
	evicted := make(chan struct{})
	reg := NewRegistry()
	sub, err := reg.Subscribe(Spec{
		SQL: "plain", Table: tbl, Columns: []string{"id", "x", "y"},
		Queue:   4, // no preference: every insert is a +row delta
		OnEvict: func() { close(evicted) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(pt(int64(i), 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-evicted:
	default:
		t.Fatal("OnEvict not called")
	}
	if sub.Err() != ErrSlowConsumer {
		t.Fatalf("Err = %v, want ErrSlowConsumer", sub.Err())
	}
	if reg.ActiveCount() != 0 {
		t.Fatalf("evicted subscription still registered")
	}
	// The channel still drains the deltas produced before the overflow,
	// then reports closed.
	n := 0
	for range sub.C() {
		n++
	}
	if n != 4 {
		t.Fatalf("drained %d queued deltas, want 4", n)
	}
	// Writes after eviction must not notify the dead subscription.
	if err := tbl.Insert(pt(99, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := sub.Stats().Changes; got != 5 {
		t.Fatalf("changes after eviction = %d, want 5", got)
	}
}

func TestWherePredicateFilters(t *testing.T) {
	tbl := ptsTable()
	reg := NewRegistry()
	sub, err := reg.Subscribe(Spec{
		SQL: "cond", Table: tbl, Columns: []string{"id", "x", "y"},
		Pref: lowlow(),
		Cond: func(r value.Row) (bool, error) { return r[1].F < 5, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := tbl.Insert(pt(1, 9, 0)); err != nil { // filtered out
		t.Fatal(err)
	}
	if err := tbl.Insert(pt(2, 1, 1)); err != nil {
		t.Fatal(err)
	}
	state := map[string]int{}
	drain(sub, state)
	if len(state) != 1 {
		t.Fatalf("state = %v, want only row 2", state)
	}
	if _, ok := state[pt(2, 1, 1).Key()]; !ok {
		t.Fatalf("missing row 2: %v", state)
	}
}

func TestCloseDetaches(t *testing.T) {
	tbl := ptsTable()
	sub := subscribe(t, tbl, 16)
	sub.Close()
	sub.Close() // idempotent
	if err := tbl.Insert(pt(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("closed subscription produced a delta")
	}
	if sub.Err() != nil {
		t.Fatalf("clean close must leave Err nil, got %v", sub.Err())
	}
}

func TestProjection(t *testing.T) {
	tbl := ptsTable()
	reg := NewRegistry()
	sub, err := reg.Subscribe(Spec{
		SQL: "proj", Table: tbl, Columns: []string{"id"},
		Project: func(r value.Row) (value.Row, error) { return value.Row{r[0]}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := tbl.Insert(pt(7, 1, 2)); err != nil {
		t.Fatal(err)
	}
	d := <-sub.C()
	if len(d.Row) != 1 || d.Row[0].I != 7 {
		t.Fatalf("projected delta = %v", d.Row)
	}
	if fmt.Sprint(sub.Columns()) != "[id]" {
		t.Fatalf("columns = %v", sub.Columns())
	}
}

// TestProjectionRunsAtEmit pins when rows are projected: shadow rows (the
// majority) never are, a row that leaves the result projects to the same
// row it entered as, and a projection that fails ends the subscription
// with its error — at the emit, without consuming a sequence number.
func TestProjectionRunsAtEmit(t *testing.T) {
	tbl := ptsTable()
	projected := map[int64]int{}
	failOn := int64(-1)
	sub, err := NewRegistry().Subscribe(Spec{
		SQL: "proj", Table: tbl, Columns: []string{"id", "x"}, Pref: lowlow(),
		Project: func(r value.Row) (value.Row, error) {
			if r[0].I == failOn {
				return nil, fmt.Errorf("cannot project row %d", r[0].I)
			}
			projected[r[0].I]++
			return value.Row{r[0], r[1]}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(row value.Row) {
		t.Helper()
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	insert(pt(1, 5, 5)) // joins the skyline: +1
	insert(pt(2, 9, 9)) // dominated: shadow, nothing emitted, nothing projected
	insert(pt(3, 1, 1)) // dominates 1: -1 then +3
	var got []string
	for i := 0; i < 3; i++ {
		d := <-sub.C()
		got = append(got, fmt.Sprintf("%d%s%s", d.Seq, map[Op]string{OpAdd: "+", OpRemove: "-"}[d.Op], d.Row))
	}
	if want := "[1+(1, 5) 2-(1, 5) 3+(3, 1)]"; fmt.Sprint(got) != want {
		t.Fatalf("deltas %v, want %s", got, want)
	}
	if projected[2] != 0 || projected[1] != 2 || projected[3] != 1 {
		t.Errorf("projection calls per row id: %v; the shadow row must cost none", projected)
	}

	failOn = 4
	insert(pt(4, 0, 0)) // dominates 3: -3 is emitted, then +4 fails to project
	if d := <-sub.C(); d.Seq != 4 || d.Op != OpRemove || d.Row[0].I != 3 {
		t.Fatalf("delta before the failure: %+v", d)
	}
	if _, open := <-sub.C(); open {
		t.Fatal("the channel must close after a projection error")
	}
	if err := sub.Err(); err == nil || err.Error() != "cannot project row 4" {
		t.Errorf("subscription error = %v, want the projection's", err)
	}
	if sub.LastSeq() != 4 {
		t.Errorf("LastSeq = %d: the failed emit must not consume a sequence number", sub.LastSeq())
	}
}
