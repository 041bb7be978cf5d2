// Package plan defines the logical query plan the engine compiles SELECT
// statements into, plus a small rule-based planner (predicate pushdown,
// index-scan selection, limit pushdown, hash-join build-side choice).
//
// The plan tree is executed by the Volcano-style pull operators of
// internal/exec; together the two packages replace the seed's hand-rolled
// "materialize everything, then filter" slice passes so that preference
// evaluation can begin before the input is fully joined and TOP-k /
// progressive consumers stop pulling early.
package plan

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/bmo"
	"repro/internal/expr"
	"repro/internal/preference"
	"repro/internal/storage"
	"repro/internal/value"
)

// ColRef labels one output column of a plan node with its qualifier (table
// name or alias; empty for computed columns) and name.
type ColRef = expr.Col

// Schema is the ordered output column list of a plan node.
type Schema []ColRef

// Scope is the schema as the column scope expressions over this node's
// rows compile against.
func (s Schema) Scope() expr.Scope { return expr.Scope{Cols: s} }

// compiled memoizes what a node's expressions compile to. Programs depend
// only on the expression and the node's schema — never on an execution —
// so the first Build of a plan compiles them and every later execution of
// that plan (a cached or prepared statement, the semijoin partner drain)
// finds them ready. The once makes concurrent executions of one cached
// plan safe.
type compiled[T any] struct {
	once sync.Once
	v    T
}

func (c *compiled[T]) get(build func() T) T {
	c.once.Do(func() { c.v = build() })
	return c.v
}

// ColIndex resolves a (table, name) reference; table may be empty. The
// second return counts matches — the first match wins, exactly like the
// engine's relation resolution.
func (s Schema) ColIndex(table, name string) (int, int) {
	idx, n := -1, 0
	for i, c := range s {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Qual, table) {
			continue
		}
		if idx < 0 {
			idx = i
		}
		n++
	}
	return idx, n
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Node is one logical plan operator.
type Node interface {
	// Schema is the node's output column list.
	Schema() Schema
	// Explain describes this node in one line (children are rendered by
	// Format).
	Explain() string
}

// children returns a node's inputs for tree traversal.
func children(n Node) []Node {
	switch x := n.(type) {
	case *Filter:
		return []Node{x.Child}
	case *Aggregate:
		return []Node{x.Child}
	case *Join:
		return []Node{x.Left, x.Right}
	case *Project:
		return []Node{x.Child}
	case *Distinct:
		return []Node{x.Child}
	case *Limit:
		return []Node{x.Child}
	case *BMO:
		return []Node{x.Child}
	case *ButOnly:
		return []Node{x.Child}
	case *QualityProject:
		return []Node{x.Child}
	}
	return nil
}

// Format renders the plan tree indented, one node per line — the EXPLAIN
// output of the pipeline.
func Format(n Node) string {
	return FormatAnnotated(n, nil)
}

// FormatAnnotated renders the plan tree like Format, appending the
// annotation returned for each node to its line (empty annotations are
// omitted). EXPLAIN ANALYZE uses it to put per-operator runtime counters
// — `rows=N time=T`, estimate vs actual — next to each plan line.
func FormatAnnotated(n Node, annotate func(Node) string) string {
	var b strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Explain())
		if annotate != nil {
			if a := annotate(n); a != "" {
				b.WriteByte(' ')
				b.WriteString(a)
			}
		}
		b.WriteByte('\n')
		for _, c := range children(n) {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

func condsSQL(conds []ast.Expr) string { return joinSQL(conds, " AND ") }

// joinSQL renders expressions separated by sep.
func joinSQL[E ast.Expr](es []E, sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.SQL()
	}
	return strings.Join(parts, sep)
}

// ---------------------------------------------------------------------------
// Leaf nodes
// ---------------------------------------------------------------------------

// SeqScan reads a base table in heap order, applying pushed-down filter
// conjuncts row by row.
type SeqScan struct {
	Table  *storage.Table
	Qual   string     // table name or alias
	Filter []ast.Expr // pushed-down conjuncts over this scan's columns
	Limit  int64      // stop after emitting this many rows; -1 = none
	schema Schema
	cond   compiled[expr.Conds]
	vec    compiled[*VecFilter]
}

// NewSeqScan builds a scan over tbl qualified as qual.
func NewSeqScan(tbl *storage.Table, qual string) *SeqScan {
	cols := make(Schema, len(tbl.Schema.Cols))
	for i, c := range tbl.Schema.Cols {
		cols[i] = ColRef{Qual: qual, Name: c.Name}
	}
	return &SeqScan{Table: tbl, Qual: qual, Limit: -1, schema: cols}
}

// Schema implements Node.
func (s *SeqScan) Schema() Schema { return s.schema }

// Cond returns the compiled filter conjuncts.
func (s *SeqScan) Cond() expr.Conds {
	return s.cond.get(func() expr.Conds { return expr.CompileConds(s.Filter, s.schema.Scope()) })
}

// Explain implements Node.
func (s *SeqScan) Explain() string {
	out := fmt.Sprintf("SeqScan %s", s.Qual)
	if len(s.Filter) > 0 {
		out += " [" + condsSQL(s.Filter) + "]"
	}
	if s.Limit >= 0 {
		out += fmt.Sprintf(" limit=%d", s.Limit)
	}
	return out
}

// IndexScan probes a hash index with an equality key and applies the
// residual filter (which deliberately still contains the equality conjunct:
// the probe may over-approximate across kind coercions, the residual makes
// the result exact, and a failed key coercion falls back to a full scan).
type IndexScan struct {
	Table  *storage.Table
	Qual   string
	Index  *storage.Index
	Col    int      // leading index column position in the table schema
	Key    ast.Expr // probe key; no locally-resolved column references
	Filter []ast.Expr
	schema Schema
	cond   compiled[expr.Conds]
	key    compiled[*expr.Program]
	vec    compiled[*VecFilter]
}

// Schema implements Node.
func (s *IndexScan) Schema() Schema { return s.schema }

// Cond returns the compiled residual filter.
func (s *IndexScan) Cond() expr.Conds {
	return s.cond.get(func() expr.Conds { return expr.CompileConds(s.Filter, s.schema.Scope()) })
}

// KeyProg returns the compiled probe key. It compiles against the empty
// scope: the key is evaluated outside the scan, so any column in it is an
// outer correlation.
func (s *IndexScan) KeyProg() *expr.Program {
	return s.key.get(func() *expr.Program { return expr.Compile(s.Key, expr.Scope{}) })
}

// Explain implements Node.
func (s *IndexScan) Explain() string {
	out := fmt.Sprintf("IndexScan %s via %s on %s=%s",
		s.Qual, s.Index.Name, s.Table.Schema.Cols[s.Col].Name, s.Key.SQL())
	if len(s.Filter) > 0 {
		out += " [" + condsSQL(s.Filter) + "]"
	}
	return out
}

// Values is a materialized relation: a view or FROM-subquery evaluated by
// the engine's materializer, or the single empty row of a FROM-less SELECT.
type Values struct {
	Name string // diagnostic label (view or subquery alias)
	Cols Schema
	Rows []value.Row
}

// Schema implements Node.
func (v *Values) Schema() Schema { return v.Cols }

// Explain implements Node.
func (v *Values) Explain() string {
	name := v.Name
	if name == "" {
		name = "values"
	}
	return fmt.Sprintf("Values %s (%d rows)", name, len(v.Rows))
}

// ---------------------------------------------------------------------------
// Inner nodes
// ---------------------------------------------------------------------------

// Filter drops rows for which any conjunct does not evaluate to TRUE.
type Filter struct {
	Child Node
	Conds []ast.Expr
	cond  compiled[expr.Conds]
}

// Schema implements Node.
func (f *Filter) Schema() Schema { return f.Child.Schema() }

// Cond returns the compiled conjuncts.
func (f *Filter) Cond() expr.Conds {
	return f.cond.get(func() expr.Conds { return expr.CompileConds(f.Conds, f.Schema().Scope()) })
}

// Explain implements Node.
func (f *Filter) Explain() string { return "Filter [" + condsSQL(f.Conds) + "]" }

// Join combines two inputs. With LCol/RCol >= 0 it is a hash equi-join;
// with On != nil (and no hash columns) a nested-loop theta join; with
// neither, a cross join. Output columns are always Left ++ Right.
//
// BuildLeft selects the physical build (materialized/inner) side: by
// default the right input is built and the left drives the output order;
// with BuildLeft the filtered left side becomes the small build input and
// the right side drives. The planner only sets it when a sort above will
// re-order rows anyway.
type Join struct {
	Left, Right Node
	Type        ast.JoinType
	On          ast.Expr
	LCol, RCol  int // hash-join key columns; -1 when not an equi join
	BuildLeft   bool
	schema      Schema
	on          compiled[*expr.Program]
}

// NewJoin constructs a join and computes its schema.
func NewJoin(left, right Node, typ ast.JoinType, on ast.Expr, lcol, rcol int) *Join {
	sch := append(append(Schema{}, left.Schema()...), right.Schema()...)
	return &Join{Left: left, Right: right, Type: typ, On: on, LCol: lcol, RCol: rcol, schema: sch}
}

// Schema implements Node.
func (j *Join) Schema() Schema { return j.schema }

// OnProg returns the compiled join condition over the joined row (nil On:
// nil program).
func (j *Join) OnProg() *expr.Program {
	return j.on.get(func() *expr.Program {
		if j.On == nil {
			return nil
		}
		return expr.Compile(j.On, j.schema.Scope())
	})
}

// Explain implements Node.
func (j *Join) Explain() string {
	kind := "NestedLoopJoin"
	if j.LCol >= 0 {
		kind = "HashJoin"
	} else if j.On == nil {
		kind = "CrossJoin"
	}
	switch j.Type {
	case ast.LeftJoin:
		kind += " left"
	case ast.CrossJoin:
		if j.On == nil {
			kind = "CrossJoin"
		}
	}
	if j.On != nil {
		kind += " on " + j.On.SQL()
	}
	if j.BuildLeft {
		kind += " build=left"
	}
	return kind
}

// Project computes the SELECT list. A non-empty OrderBy makes it a
// materializing sort: order expressions may reference projection aliases or
// source columns (the engine's dual-environment semantics).
type Project struct {
	Child   Node
	Items   []ast.SelectItem
	OrderBy []ast.OrderItem
	proj    *expr.Projection
	keys    compiled[[]*expr.Program]
}

// NewProject builds the projection node, expanding stars against the
// child's schema.
func NewProject(child Node, items []ast.SelectItem, orderBy []ast.OrderItem) *Project {
	return &Project{Child: child, Items: items, OrderBy: orderBy,
		proj: expr.CompileProjection(items, child.Schema().Scope())}
}

// Schema implements Node.
func (p *Project) Schema() Schema { return p.proj.Cols }

// Projection returns the compiled SELECT list.
func (p *Project) Projection() *expr.Projection { return p.proj }

// PassThrough reports whether the projection emits its input rows
// unchanged (a single unqualified `*`, no sort), so it commutes with a BMO
// above it and an operator may hand the child's rows through.
func (p *Project) PassThrough() bool { return p.proj.Identity && len(p.OrderBy) == 0 }

// SortKeys returns the compiled ORDER BY keys. They run over the output
// row followed by the source row: an unqualified name finds a projection
// alias first, then a source column.
func (p *Project) SortKeys() []*expr.Program {
	return p.keys.get(func() []*expr.Program {
		out := p.Schema()
		scope := expr.Scope{
			Cols:    append(append(make([]expr.Col, 0, len(out)+len(p.Child.Schema())), out...), p.Child.Schema()...),
			Aliases: len(out),
		}
		keys := make([]*expr.Program, len(p.OrderBy))
		for i, ob := range p.OrderBy {
			keys[i] = expr.Compile(ob.Expr, scope)
		}
		return keys
	})
}

// Explain implements Node.
func (p *Project) Explain() string { return "Project " + selectListSQL(p.Items, p.OrderBy) }

// selectListSQL renders a SELECT list plus its sort keys, if any.
func selectListSQL(items []ast.SelectItem, orderBy []ast.OrderItem) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = it.Expr.SQL()
	}
	out := strings.Join(parts, ", ")
	if len(orderBy) > 0 {
		keys := make([]string, len(orderBy))
		for i, ob := range orderBy {
			keys[i] = ob.Expr.SQL()
			if ob.Desc {
				keys[i] += " DESC"
			}
		}
		out += " sort=[" + strings.Join(keys, ", ") + "]"
	}
	return out
}

// Distinct removes duplicate rows, keeping first occurrences in order.
type Distinct struct {
	Child Node
}

// Schema implements Node.
func (d *Distinct) Schema() Schema { return d.Child.Schema() }

// Explain implements Node.
func (d *Distinct) Explain() string { return "Distinct" }

// Limit emits at most Count rows after skipping Offset rows, then stops
// pulling from its input — the early-exit point of the pipeline.
type Limit struct {
	Child  Node
	Count  int64 // -1 = no limit
	Offset int64
}

// Schema implements Node.
func (l *Limit) Schema() Schema { return l.Child.Schema() }

// Explain implements Node.
func (l *Limit) Explain() string {
	return fmt.Sprintf("Limit count=%d offset=%d", l.Count, l.Offset)
}

// BMO computes the Best-Matches-Only set of its input under a compiled
// preference. In progressive mode (score-based preferences, or any
// preference under the parallel algorithm) undominated tuples stream out
// as soon as they are known maximal, so a TOP-k consumer stops the
// remaining dominance work; otherwise the input is evaluated in batch
// with the configured algorithm and the result streamed.
type BMO struct {
	Child Node
	Pref  preference.Preference
	// Reg maps the attributes of Pref's base preferences to those
	// preferences, for the quality functions TOP/LEVEL/DISTANCE that the
	// ButOnly and QualityProject nodes above evaluate against this
	// node's input (the candidate relation). Nil on nodes the pushdown
	// rewriter derived: quality-bearing queries are never pushed.
	Reg  *preference.Registry
	Algo bmo.Algorithm
	// Grouping, when non-empty, is the query's GROUPING clause: BMO is
	// evaluated separately within each group of equal key values, in
	// batch. Grouped nodes are never pushed, vectorized or progressive.
	Grouping  []ast.Expr
	groupKeys compiled[[]*expr.Program]
	// Progressive requests streaming evaluation; it is an error when the
	// preference is not score-based (the QueryProgressive contract) and
	// the algorithm is not Parallel (whose partition-merge stream serves
	// arbitrary preferences).
	Progressive bool
	// Workers caps the partition-merge concurrency; 0 lets the executor
	// use one worker per available CPU. The session's `SET workers`
	// setting lands here.
	Workers int
	// EstRows is the planner's cardinality estimate for the candidate
	// relation, derived from table statistics (see EstimateRows); -1
	// when unknown.
	EstRows int64

	// VecCols, when non-nil, selects the vectorized physical operator:
	// the executor fills a flat score matrix (from column vectors when
	// VecScan is set, or by generic per-row scoring) and evaluates
	// batch-at-a-time with zone-map block pruning. It maps each score
	// component to its child-schema column index (parallel to the
	// preference's scorer list). The planner sets it from table
	// statistics when the preference is fully score-based over
	// resolvable numeric columns; see core's vectorize step.
	VecCols []int
	// VecScan, when non-nil, is the scan under the child's bare
	// projection: it emits its table's heap unfiltered and unlimited, so
	// heap order matches input, and the executor fills score vectors
	// from the column vectors of the heap that scan captured instead of
	// boxing row values.
	VecScan *SeqScan

	// The remaining fields are set by the preference-algebra rewriter
	// (PushBMO) when it moves dominance work below a join.

	// Pushdown labels the node's role in a rewritten plan: "left" /
	// "right" mark a whole preference moved below the join onto that
	// input (the BMO above the join disappears), "split" marks the
	// residual full-preference node kept above a join whose inputs
	// carry grouped per-side pre-filters.
	Pushdown string
	// Pad is the number of join-schema columns to the left of this
	// node's input: the preference was compiled against the full join
	// schema, so for a right-side pushdown the executor pads each input
	// row with Pad NULLs before preference evaluation (making the
	// full-schema column getters resolve) and strips them on emit.
	Pad int
	// GroupCol >= 0 makes the node a group-wise pre-filter: dominance
	// is evaluated only among rows sharing a join-key value (column
	// index in the child schema, hashed with the hash join's key
	// semantics). Group-local dominators share the victim's join
	// partners, which is what makes a per-side Pareto fragment below an
	// equi-join sound without knowing the other side.
	GroupCol int
	// SemiSource, when non-nil, is the join's other input: before
	// dominance evaluation the executor drains it and keeps only input
	// rows whose SemiLocalCol key has at least one partner among the
	// source's SemiSourceCol keys. Restricting to tuples that survive
	// the join makes the whole-preference pushdown exact:
	// BMO(P, L ⋈ R) = BMO(P, L ⋉ R) ⋈ R when P reads only L's columns.
	SemiSource    Node
	SemiLocalCol  int
	SemiSourceCol int
}

// NewBMO builds the BMO node with the child's estimated cardinality.
func NewBMO(child Node, pref preference.Preference, algo bmo.Algorithm, progressive bool, workers int) *BMO {
	return &BMO{Child: child, Pref: pref, Algo: algo, Progressive: progressive,
		Workers: workers, EstRows: EstimateRows(child),
		GroupCol: -1, SemiLocalCol: -1, SemiSourceCol: -1}
}

// Schema implements Node.
func (b *BMO) Schema() Schema { return b.Child.Schema() }

// GroupKeys returns the compiled GROUPING key expressions over the
// child's rows.
func (b *BMO) GroupKeys() []*expr.Program {
	return b.groupKeys.get(func() []*expr.Program { return compileAll(b.Grouping, b.Child.Schema()) })
}

// Explain implements Node.
func (b *BMO) Explain() string {
	mode := b.Algo.String()
	if b.Progressive {
		mode = "progressive " + mode
	}
	out := "BMO " + mode
	if b.VecCols != nil {
		out = fmt.Sprintf("BMO vec est=%d", b.EstRows)
		if b.VecScan != nil {
			out += " columnar"
		}
	}
	if b.Workers > 0 {
		out += fmt.Sprintf(" workers=%d", b.Workers)
	}
	if b.Pushdown != "" {
		out += " pushdown=" + b.Pushdown
	}
	if b.SemiSource != nil {
		out += " semijoin"
	}
	if b.GroupCol >= 0 {
		out += " group=" + b.Child.Schema()[b.GroupCol].Name
	}
	if len(b.Grouping) > 0 {
		out += " grouping=" + joinSQL(b.Grouping, ",")
	}
	return out + fmt.Sprintf(" [%s]", b.Pref.Describe())
}

// EstimateRows estimates a plan node's output cardinality from table
// statistics (storage row counts). The estimates are deliberately crude
// — filters keep a third, index probes a tenth — but deterministic: the
// same catalog state always yields the same plan choices, which keeps
// EXPLAIN output stable and testable.
func EstimateRows(n Node) int64 {
	switch x := n.(type) {
	case *SeqScan:
		est := int64(x.Table.RowCount())
		if len(x.Filter) > 0 {
			est /= 3
		}
		if x.Limit >= 0 && x.Limit < est {
			est = x.Limit
		}
		return est
	case *IndexScan:
		est := int64(x.Table.RowCount()) / 10
		if est < 1 {
			est = 1
		}
		return est
	case *Values:
		return int64(len(x.Rows))
	case *Filter:
		return EstimateRows(x.Child) / 3
	case *Aggregate:
		if len(x.GroupBy) == 0 {
			return 1
		}
		return EstimateRows(x.Child)
	case *Join:
		l, r := EstimateRows(x.Left), EstimateRows(x.Right)
		if l < 0 || r < 0 {
			return -1
		}
		if x.LCol >= 0 || x.On != nil {
			// Equi/theta join: assume the larger side survives.
			if l > r {
				return l
			}
			return r
		}
		if r != 0 && l > (1<<40)/r {
			return 1 << 40 // cap the cross-product estimate
		}
		return l * r
	case *Project:
		return EstimateRows(x.Child)
	case *Distinct:
		return EstimateRows(x.Child)
	case *Limit:
		est := EstimateRows(x.Child)
		if x.Count >= 0 && x.Count+x.Offset < est {
			est = x.Count + x.Offset
		}
		return est
	case *BMO:
		return EstimateRows(x.Child)
	case *ButOnly:
		return EstimateRows(x.Child) / 3
	case *QualityProject:
		est := EstimateRows(x.Child)
		if x.Limit >= 0 && x.Limit < est {
			est = x.Limit
		}
		return est
	}
	return -1
}
