package core

import (
	"context"
	"fmt"

	"repro/internal/parser"
	"repro/internal/value"
)

// QueryProgressive evaluates a preference query incrementally, invoking
// yield with each projected result row as soon as it is known to be in the
// Best-Matches-Only set (progressive skyline, cf. [TEO01]). It returns the
// result column names. yield returning false stops the evaluation — e.g.
// after filling the first result page of a mobile search (§4.2).
//
// It is a thin wrapper over the streaming Cursor in strict mode:
// ORDER BY, GROUPING and DISTINCT are incompatible with streaming and
// rejected; LIMIT is honoured by early termination; BUT ONLY filters rows
// inline. Every preference streams.
func (db *DB) QueryProgressive(sql string, yield func(value.Row) bool) ([]string, error) {
	return db.def.QueryProgressive(sql, yield)
}

// QueryProgressiveContext is QueryProgressive on the default session with
// a cancellation context and bind arguments.
func (db *DB) QueryProgressiveContext(ctx context.Context, sql string, yield func(value.Row) bool, args ...any) ([]string, error) {
	return db.def.QueryProgressiveContext(ctx, sql, yield, args...)
}

// QueryProgressive is the session-scoped variant; see DB.QueryProgressive.
func (s *Session) QueryProgressive(sql string, yield func(value.Row) bool) ([]string, error) {
	return s.QueryProgressiveContext(context.Background(), sql, yield)
}

// QueryProgressiveContext is QueryProgressive with a cancellation context
// and positional bind arguments: cancelling ctx stops the remaining
// dominance work exactly like yield returning false.
func (s *Session) QueryProgressiveContext(ctx context.Context, sql string, yield func(value.Row) bool, args ...any) ([]string, error) {
	vals, err := value.FromGoArgs(args)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return s.QueryProgressiveValues(ctx, sql, yield, vals)
}

// QueryProgressiveValues is QueryProgressiveContext with pre-converted
// argument values.
func (s *Session) QueryProgressiveValues(ctx context.Context, sql string, yield func(value.Row) bool, args []value.Value) ([]string, error) {
	sel, nparams, err := parser.ParseSelectCount(sql)
	if err != nil {
		return nil, err
	}
	if err := checkArgCount(nparams, args); err != nil {
		return nil, err
	}
	if !sel.HasPreference() {
		return nil, fmt.Errorf("core: not a preference query")
	}
	if len(sel.OrderBy) > 0 || len(sel.Grouping) > 0 || sel.Distinct {
		return nil, fmt.Errorf("core: ORDER BY, GROUPING and DISTINCT cannot stream progressively")
	}
	c, err := s.openCursorPinned(sel, true, execEnv{ctx: ctx, params: args})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	for c.Next() {
		if !yield(c.Row()) {
			break
		}
	}
	if c.Err() != nil {
		return nil, c.Err()
	}
	return c.Columns(), nil
}
